#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "ann/mlp.hpp"
#include "ann/serialize.hpp"
#include "ann/trainer.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace hynapse::ann {
namespace {

TEST(Activations, TanhLecunRangeAndSlope) {
  Matrix m{1, 3};
  m.at(0, 0) = -100.0f;
  m.at(0, 1) = 0.0f;
  m.at(0, 2) = 100.0f;
  tanh_lecun_inplace(m);
  EXPECT_NEAR(m.at(0, 0), -1.7159f, 1e-3);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
  EXPECT_NEAR(m.at(0, 2), 1.7159f, 1e-3);
}

TEST(Activations, ReluClampsNegatives) {
  Matrix m{1, 3};
  m.at(0, 0) = -2.0f;
  m.at(0, 1) = 0.0f;
  m.at(0, 2) = 3.0f;
  relu_inplace(m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 3.0f);
}

TEST(Activations, DerivativesMatchFiniteDifference) {
  for (Activation act : {Activation::sigmoid, Activation::tanh_lecun}) {
    for (float x : {-1.5f, -0.3f, 0.0f, 0.4f, 2.0f}) {
      Matrix m{1, 1};
      const float h = 1e-3f;
      m.at(0, 0) = x + h;
      activate_inplace(m, act);
      const float fp = m.at(0, 0);
      m.at(0, 0) = x - h;
      activate_inplace(m, act);
      const float fm = m.at(0, 0);
      m.at(0, 0) = x;
      activate_inplace(m, act);
      const float fx = m.at(0, 0);
      const float numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(activation_derivative(fx, act), numeric, 5e-3)
          << "x=" << x << " act=" << static_cast<int>(act);
    }
  }
}

TEST(Activations, ReluDerivativeFromActivationValue) {
  EXPECT_FLOAT_EQ(activation_derivative(2.0f, Activation::relu), 1.0f);
  EXPECT_FLOAT_EQ(activation_derivative(0.0f, Activation::relu), 0.0f);
}

// Same training task, all three activations must learn it; the deep-net
// vanishing-gradient advantage of tanh is covered by the bench model.
class ActivationTraining : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationTraining, LearnsTwoBlobs) {
  util::Rng rng{77};
  Matrix x{240, 4};
  std::vector<std::uint8_t> y(240);
  for (std::size_t i = 0; i < 240; ++i) {
    const bool cls = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j)
      x.at(i, j) =
          static_cast<float>(rng.normal(cls ? 0.7 : -0.7, 0.35));
    y[i] = cls ? 1 : 0;
  }
  Mlp net{{4, 12, 2}, 3, GetParam()};
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 24;
  cfg.learning_rate = GetParam() == Activation::sigmoid ? 0.8 : 0.1;
  train_sgd(net, x, y, cfg);
  EXPECT_GT(net.accuracy(x, y), 0.95);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationTraining,
                         ::testing::Values(Activation::sigmoid,
                                           Activation::tanh_lecun,
                                           Activation::relu));

TEST(Activations, GradientCheckTanhNetwork) {
  Mlp net{{3, 5, 2}, 19, Activation::tanh_lecun};
  Matrix x{4, 3};
  std::vector<std::uint8_t> y{0, 1, 1, 0};
  util::Rng rng{23};
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const double lr = 1e-3;
  Mlp trained = net;
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  cfg.learning_rate = lr;
  cfg.momentum = 0.0;
  cfg.lr_decay = 1.0;
  train_sgd(trained, x, y, cfg);
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    const std::size_t idx = 2;
    const double grad_bp =
        (net.weight(l).data()[idx] - trained.weight(l).data()[idx]) / lr;
    const float eps = 1e-3f;
    Mlp plus = net;
    plus.weight(l).data()[idx] += eps;
    Mlp minus = net;
    minus.weight(l).data()[idx] -= eps;
    const double grad_fd =
        (cross_entropy(plus, x, y) - cross_entropy(minus, x, y)) / (2.0 * eps);
    EXPECT_NEAR(grad_bp, grad_fd, 5e-2 * std::max(1.0, std::fabs(grad_fd)))
        << "layer " << l;
  }
}

TEST(Activations, SerializationPreservesActivation) {
  const Mlp net{{4, 6, 2}, 31, Activation::tanh_lecun};
  const std::string path = hynapse::testing::temp_path("act.bin");
  save_mlp(net, path);
  const auto loaded = load_mlp(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->hidden_activation(), Activation::tanh_lecun);
  std::filesystem::remove(path);
}

TEST(Activations, DeepSigmoidStallsWhereTanhTrains) {
  // The failure mode that motivated tanh for the Table-I network: a
  // 4-hidden-layer sigmoid net barely moves in a few epochs while the
  // scaled-tanh twin learns.
  util::Rng rng{41};
  Matrix x{300, 16};
  std::vector<std::uint8_t> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 16; ++j)
      x.at(i, j) = static_cast<float>(rng.uniform());
    y[i] = x.at(i, 0) + x.at(i, 1) > x.at(i, 2) + x.at(i, 3) ? 1 : 0;
  }
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 30;
  cfg.learning_rate = 0.1;
  Mlp tanh_net{{16, 64, 48, 32, 16, 2}, 7, Activation::tanh_lecun};
  Mlp sigm_net{{16, 64, 48, 32, 16, 2}, 7, Activation::sigmoid};
  const double tanh_loss = train_sgd(tanh_net, x, y, cfg);
  const double sigm_loss = train_sgd(sigm_net, x, y, cfg);
  EXPECT_LT(tanh_loss, sigm_loss);
}

}  // namespace
}  // namespace hynapse::ann
