#include "ml/mlp.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mummi::ml {

Mlp::Mlp(std::vector<int> widths, std::uint64_t seed)
    : widths_(std::move(widths)) {
  MUMMI_CHECK_MSG(widths_.size() >= 2, "MLP needs at least input and output");
  util::Rng rng(seed);
  for (std::size_t l = 0; l + 1 < widths_.size(); ++l) {
    const int in = widths_[l];
    const int out = widths_[l + 1];
    MUMMI_CHECK_MSG(in > 0 && out > 0, "layer widths must be positive");
    const double scale = std::sqrt(2.0 / (in + out));
    std::vector<float> w(static_cast<std::size_t>(in) * out);
    for (auto& v : w) v = static_cast<float>(rng.normal(0.0, scale));
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<std::size_t>(out), 0.0f);
  }
}

std::vector<float> Mlp::forward(const std::vector<float>& input) const {
  MUMMI_CHECK_MSG(static_cast<int>(input.size()) == widths_.front(),
                  "MLP input dimension mismatch");
  std::vector<float> x = input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const int in = widths_[l];
    const int out = widths_[l + 1];
    std::vector<float> y(static_cast<std::size_t>(out));
    for (int o = 0; o < out; ++o) {
      float acc = biases_[l][o];
      const float* row = &weights_[l][static_cast<std::size_t>(o) * in];
      for (int i = 0; i < in; ++i) acc += row[i] * x[i];
      y[o] = acc;
    }
    const bool last = l + 1 == weights_.size();
    if (!last)
      for (auto& v : y) v = std::tanh(v);
    x = std::move(y);
  }
  return x;
}

}  // namespace mummi::ml
