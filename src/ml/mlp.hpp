// Dense feed-forward network inference.
//
// The paper's Patch Selector consumes a 9-D "reduced representation
// generated by a metric learning approach implemented using a deep neural
// network". Mlp is that inference engine: dense layers with tanh hidden
// activations, deterministically initialized from a seed, forward-only.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mummi::ml {

class Mlp {
 public:
  /// Builds a network with the given layer widths (first = input dim, last =
  /// output dim) and Xavier-style deterministic random weights.
  Mlp(std::vector<int> widths, std::uint64_t seed);

  /// Forward pass; `input.size()` must equal the input width. Hidden layers
  /// use tanh; the output layer is linear.
  [[nodiscard]] std::vector<float> forward(const std::vector<float>& input) const;

  [[nodiscard]] int input_dim() const { return widths_.front(); }
  [[nodiscard]] int output_dim() const { return widths_.back(); }

 private:
  std::vector<int> widths_;
  // weights_[l] is (out x in) row-major; biases_[l] length out.
  std::vector<std::vector<float>> weights_;
  std::vector<std::vector<float>> biases_;
};

}  // namespace mummi::ml
