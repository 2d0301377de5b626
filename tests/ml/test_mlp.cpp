#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/point.hpp"
#include "util/error.hpp"

namespace mummi::ml {
namespace {

TEST(Mlp, ShapePropagates) {
  Mlp mlp({5, 16, 8, 3}, 1);
  EXPECT_EQ(mlp.input_dim(), 5);
  EXPECT_EQ(mlp.output_dim(), 3);
  const auto out = mlp.forward({1, 2, 3, 4, 5});
  EXPECT_EQ(out.size(), 3u);
  for (float v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST(Mlp, DeterministicForSeed) {
  Mlp a({4, 8, 2}, 7), b({4, 8, 2}, 7);
  EXPECT_EQ(a.forward({1, 0, -1, 2}), b.forward({1, 0, -1, 2}));
}

TEST(Mlp, DifferentSeedsDiffer) {
  Mlp a({4, 8, 2}, 7), b({4, 8, 2}, 8);
  EXPECT_NE(a.forward({1, 0, -1, 2}), b.forward({1, 0, -1, 2}));
}

TEST(Mlp, InputSensitivity) {
  Mlp mlp({3, 16, 4}, 3);
  const auto a = mlp.forward({0, 0, 0});
  const auto b = mlp.forward({1, 0, 0});
  EXPECT_GT(dist2(a, b), 0.0f);
}

TEST(Mlp, ZeroBiasGivesZeroAtOrigin) {
  // tanh(0)=0 and the output layer is linear with zero bias, so f(0)=0.
  Mlp mlp({4, 8, 8, 2}, 11);
  for (float v : mlp.forward({0, 0, 0, 0})) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Mlp, HiddenActivationsBounded) {
  // Single hidden layer net with huge inputs: output bounded by sum |w|.
  Mlp mlp({2, 32, 1}, 5);
  const auto small = mlp.forward({1e3f, -1e3f});
  const auto large = mlp.forward({1e6f, -1e6f});
  // tanh saturates: scaling the input further barely changes the output.
  EXPECT_NEAR(small[0], large[0], 1e-3f);
}

TEST(Mlp, WrongInputDimensionRejected) {
  Mlp mlp({3, 4, 2}, 1);
  EXPECT_THROW(mlp.forward({1, 2}), util::Error);
  EXPECT_THROW(mlp.forward({1, 2, 3, 4}), util::Error);
}

TEST(Mlp, DegenerateArchitectureRejected) {
  EXPECT_THROW(Mlp({5}, 1), util::Error);
  EXPECT_THROW(Mlp({5, 0, 2}, 1), util::Error);
}

TEST(Mlp, MinimalTwoLayerIsLinear) {
  // No hidden layers -> affine map; check additivity with zero bias.
  Mlp mlp({2, 2}, 9);
  const auto fa = mlp.forward({1, 0});
  const auto fb = mlp.forward({0, 1});
  const auto fab = mlp.forward({1, 1});
  EXPECT_NEAR(fab[0], fa[0] + fb[0], 1e-5f);
  EXPECT_NEAR(fab[1], fa[1] + fb[1], 1e-5f);
}

}  // namespace
}  // namespace mummi::ml
