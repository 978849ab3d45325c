// Tests for the from-scratch NN library: tensor ops, layer forward/backward
// (checked against numerical differentiation), optimizers, losses, and
// parameter persistence.

#include <gtest/gtest.h>

#include <cmath>

#include "ds/nn/gradcheck.h"
#include "ds/nn/layers.h"
#include "ds/nn/loss.h"
#include "ds/nn/optimizer.h"
#include "ds/nn/tensor.h"
#include "ds/util/random.h"

namespace ds::nn {
namespace {

TEST(TensorTest, ShapeAndIndexing) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.at(5), 5.0f);  // row-major
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_EQ(t.ShapeString(), "[2, 3]");
}

TEST(TensorTest, MatMulAgainstHandComputed) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicitTranspose) {
  util::Pcg32 rng(5);
  Tensor a({4, 3}), b({5, 3}), c({4, 6});
  for (auto* t : {&a, &b, &c}) {
    for (float& v : t->vec()) v = static_cast<float>(rng.Normal());
  }
  // a [4,3] x b^T [3,5] == MatMulTransposedB(a, b).
  Tensor bt({3, 5});
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor want = MatMul(a, bt);
  Tensor got = MatMulTransposedB(a, b);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4);
  }
  // a^T [3,4] x c [4,6] == MatMulTransposedA(a, c).
  Tensor at({3, 4});
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor want2 = MatMul(at, c);
  Tensor got2 = MatMulTransposedA(a, c);
  for (size_t i = 0; i < want2.size(); ++i) {
    EXPECT_NEAR(got2.at(i), want2.at(i), 1e-4);
  }
}

// Scalar loss used for gradient checks: sum of squares of the output.
double SumSquares(const Tensor& y) {
  double s = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y.at(i)) * static_cast<double>(y.at(i));
  }
  return s;
}

Tensor SumSquaresGrad(const Tensor& y) {
  Tensor d(y.shape());
  for (size_t i = 0; i < y.size(); ++i) d.at(i) = 2.0f * y.at(i);
  return d;
}

TEST(LinearTest, GradientCheck) {
  util::Pcg32 rng(11);
  Linear layer("l", 4, 3);
  layer.Initialize(&rng);
  Tensor x({5, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());

  Tensor y = layer.Forward(x);
  layer.Backward(SumSquaresGrad(y));

  auto loss = [&]() { return SumSquares(layer.Forward(x)); };
  for (Parameter* p : layer.Parameters()) {
    auto r = CheckParameterGradient(p, loss);
    EXPECT_LT(r.max_rel_error, 2e-2) << p->name;
  }
}

TEST(LinearTest, InputGradientCheck) {
  util::Pcg32 rng(13);
  Linear layer("l", 3, 2);
  layer.Initialize(&rng);
  Tensor x({2, 3});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor y = layer.Forward(x);
  Tensor dx = *layer.Backward(SumSquaresGrad(y));
  // Numerical check on the input gradient.
  const double eps = 1e-3;
  for (size_t i = 0; i < x.size(); ++i) {
    float saved = x.at(i);
    x.at(i) = saved + static_cast<float>(eps);
    double up = SumSquares(layer.Forward(x));
    x.at(i) = saved - static_cast<float>(eps);
    double down = SumSquares(layer.Forward(x));
    x.at(i) = saved;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(MlpTest, GradientCheckThroughTwoLayers) {
  util::Pcg32 rng(17);
  Mlp mlp("m", {4, 6, 2}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x({3, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor y = mlp.Forward(x);
  Tensor dy = SumSquaresGrad(y);
  mlp.Backward(&dy);
  auto loss = [&]() { return SumSquares(mlp.Forward(x)); };
  for (Parameter* p : mlp.Parameters()) {
    auto r = CheckParameterGradient(p, loss);
    EXPECT_LT(r.max_rel_error, 5e-2) << p->name;
  }
}

TEST(ActivationTest, ReluForwardBackward) {
  ReLU relu;
  Tensor y = Tensor::FromData({1, 4}, {-1, 0, 2, -3});
  relu.Forward(&y);
  EXPECT_FLOAT_EQ(y.at(0), 0);
  EXPECT_FLOAT_EQ(y.at(2), 2);
  Tensor dx = Tensor::FromData({1, 4}, {1, 1, 1, 1});
  relu.Backward(&dx);
  EXPECT_FLOAT_EQ(dx.at(0), 0);
  EXPECT_FLOAT_EQ(dx.at(2), 1);
}

TEST(ActivationTest, SigmoidMatchesClosedForm) {
  Sigmoid s;
  Tensor y = Tensor::FromData({1, 3}, {0, 2, -2});
  s.Forward(&y);
  EXPECT_NEAR(y.at(0), 0.5, 1e-6);
  EXPECT_NEAR(y.at(1), 1.0 / (1.0 + std::exp(-2.0)), 1e-6);
  Tensor dx = Tensor::FromData({1, 3}, {1, 1, 1});
  s.Backward(&dx);
  EXPECT_NEAR(dx.at(0), 0.25, 1e-6);  // sigma'(0) = 1/4
}

TEST(MlpTest, InferMatchesForward) {
  util::Pcg32 rng(23);
  Mlp mlp("m", {4, 6, 2}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x({3, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor trained = mlp.Forward(x);
  Workspace ws;
  const Tensor* inferred = mlp.InferInto(x, &ws);
  ASSERT_EQ(inferred->size(), trained.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_FLOAT_EQ(inferred->at(i), trained.at(i)) << i;
  }
  // InferInto must leave no trace: a Backward after it still sees the
  // activations kept by the last Forward.
  ws.Reset();
  mlp.InferInto(x, &ws);
  Tensor dy = SumSquaresGrad(trained);
  mlp.Backward(&dy);
}

TEST(ActivationTest, ApplyInPlaceMatchesForward) {
  Tensor x = Tensor::FromData({2, 2}, {-1.5f, 0.0f, 0.5f, 3.0f});
  ReLU relu;
  Tensor want_relu = x;
  relu.Forward(&want_relu);
  Tensor got_relu = x;
  ReLU::ApplyInPlace(&got_relu);
  Sigmoid sigmoid;
  Tensor want_sig = x;
  sigmoid.Forward(&want_sig);
  Tensor got_sig = x;
  Sigmoid::ApplyInPlace(&got_sig);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(got_relu.at(i), want_relu.at(i));
    EXPECT_FLOAT_EQ(got_sig.at(i), want_sig.at(i));
  }
}

TEST(MaskedMeanTest, PoolIntoMatchesForward) {
  Tensor flat = Tensor::FromData(
      {6, 2}, {1, 2, 3, 4, 100, 100, 5, 6, 100, 100, 100, 100});
  Tensor mask = Tensor::FromData({2, 3}, {1, 1, 0, 1, 0, 0});
  MaskedMean pool;
  Tensor want = pool.Forward(flat, mask);
  Tensor got;
  MaskedMean::PoolInto(flat, mask, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.at(i), want.at(i));
  }
}

TEST(MaskedMeanTest, AveragesOnlyRealElements) {
  // B=2 sets, S=3 slots, H=2 features.
  Tensor flat = Tensor::FromData(
      {6, 2}, {1, 2, 3, 4, 100, 100,   // set 0: elements (1,2),(3,4); pad
               5, 6, 100, 100, 100, 100});  // set 1: element (5,6); pads
  Tensor mask = Tensor::FromData({2, 3}, {1, 1, 0, 1, 0, 0});
  MaskedMean pool;
  Tensor out = pool.Forward(flat, mask);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2);  // (1+3)/2
  EXPECT_FLOAT_EQ(out.at(0, 1), 3);  // (2+4)/2
  EXPECT_FLOAT_EQ(out.at(1, 0), 5);
  EXPECT_FLOAT_EQ(out.at(1, 1), 6);
}

TEST(MaskedMeanTest, EmptySetYieldsZeroAndNoGradient) {
  // Set 0 is empty, set 1 holds row 0.
  Tensor rows = Tensor::FromData({1, 2}, {7, 8});
  const std::vector<uint32_t> offsets = {0, 0, 1}, slots = {0};
  Tensor out;
  MaskedMean::PoolSlotsInto(rows, offsets, slots, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0);
  EXPECT_FLOAT_EQ(out.at(1, 0), 7);
  Tensor dy = Tensor::FromData({2, 2}, {1, 1, 4, 5});
  Tensor drows;
  MaskedMean::PoolSlotsBackward(dy, offsets, &drows);
  ASSERT_EQ(drows.dim(0), 1u);  // no row for the empty set to receive
  EXPECT_FLOAT_EQ(drows.at(0, 0), 4);
  EXPECT_FLOAT_EQ(drows.at(0, 1), 5);
}

TEST(MaskedMeanTest, BackwardDistributesEvenly) {
  Tensor dy = Tensor::FromData({1, 1}, {6});
  Tensor drows;
  MaskedMean::PoolSlotsBackward(dy, {0, 2}, &drows);
  ASSERT_EQ(drows.dim(0), 2u);
  EXPECT_FLOAT_EQ(drows.at(0), 3);  // 6 * 1/2
  EXPECT_FLOAT_EQ(drows.at(1), 3);
}

TEST(LogNormalizerTest, RoundTrip) {
  LogNormalizer n = LogNormalizer::Fit({1, 10, 100000});
  EXPECT_NEAR(n.Normalize(100000), 1.0, 1e-9);
  EXPECT_NEAR(n.Normalize(1), 0.0, 1e-9);
  for (double card : {1.0, 5.0, 77.0, 5000.0}) {
    EXPECT_NEAR(n.Denormalize(n.Normalize(card)), card, card * 1e-6);
  }
  // Above the training max: clamped to 1.0 in normalized space.
  EXPECT_DOUBLE_EQ(n.Normalize(1e12), 1.0);
}

TEST(LossTest, QErrorLossValueAndGradientSign) {
  LogNormalizer norm;
  norm.min_log = 0.0;
  norm.max_log = std::log(1000.0);
  // One overestimate, one underestimate.
  Tensor y = Tensor::FromData({2, 1}, {0.9f, 0.1f});
  std::vector<double> truth = {10.0, 500.0};
  Tensor dy({2, 1});
  double loss = QErrorLoss(y, truth, norm, &dy);
  EXPECT_GE(loss, 1.0);
  EXPECT_GT(dy.at(0), 0);  // overestimate: push y down
  EXPECT_LT(dy.at(1), 0);  // underestimate: push y up
}

TEST(LossTest, QErrorGradientMatchesNumeric) {
  LogNormalizer norm;
  norm.max_log = std::log(5000.0);
  Tensor y = Tensor::FromData({3, 1}, {0.3f, 0.6f, 0.45f});
  std::vector<double> truth = {40.0, 400.0, 90.0};
  Tensor dy({3, 1});
  QErrorLoss(y, truth, norm, &dy);
  const double eps = 1e-4;
  for (size_t i = 0; i < 3; ++i) {
    Tensor up = y, down = y;
    up.at(i) += static_cast<float>(eps);
    down.at(i) -= static_cast<float>(eps);
    Tensor scratch({3, 1});
    double lu = QErrorLoss(up, truth, norm, &scratch);
    double ld = QErrorLoss(down, truth, norm, &scratch);
    EXPECT_NEAR(dy.at(i), (lu - ld) / (2 * eps),
                2e-2 * std::abs((lu - ld) / (2 * eps)) + 1e-4);
  }
}

TEST(LossTest, MseGradientMatchesNumeric) {
  LogNormalizer norm;
  norm.max_log = std::log(5000.0);
  Tensor y = Tensor::FromData({2, 1}, {0.3f, 0.8f});
  std::vector<double> truth = {40.0, 400.0};
  Tensor dy({2, 1});
  MseLoss(y, truth, norm, &dy);
  const double eps = 1e-4;
  for (size_t i = 0; i < 2; ++i) {
    Tensor up = y, down = y;
    up.at(i) += static_cast<float>(eps);
    down.at(i) -= static_cast<float>(eps);
    Tensor scratch({2, 1});
    double lu = MseLoss(up, truth, norm, &scratch);
    double ld = MseLoss(down, truth, norm, &scratch);
    EXPECT_NEAR(dy.at(i), (lu - ld) / (2 * eps), 1e-3);
  }
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimize ||w||^2 with SGD: w -> 0.
  Parameter w("w", {4});
  for (size_t i = 0; i < 4; ++i) w.value.at(i) = static_cast<float>(i + 1);
  Sgd sgd({&w}, /*lr=*/0.1f);
  for (int step = 0; step < 100; ++step) {
    for (size_t i = 0; i < 4; ++i) w.grad.at(i) = 2.0f * w.value.at(i);
    sgd.Step();
    sgd.ZeroGrad();
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(w.value.at(i), 0.0, 1e-3);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Parameter w("w", {4});
  for (size_t i = 0; i < 4; ++i) w.value.at(i) = static_cast<float>(i + 1);
  Adam adam({&w}, /*lr=*/0.05f);
  for (int step = 0; step < 500; ++step) {
    for (size_t i = 0; i < 4; ++i) w.grad.at(i) = 2.0f * w.value.at(i);
    adam.Step();
    adam.ZeroGrad();
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(w.value.at(i), 0.0, 1e-2);
}

TEST(PersistenceTest, ParameterRoundTrip) {
  util::Pcg32 rng(3);
  Mlp a("m", {3, 4, 2}, true);
  a.Initialize(&rng);
  util::BinaryWriter w;
  WriteParameters(a.Parameters(), &w);

  Mlp b("m", {3, 4, 2}, true);
  util::BinaryReader r(w.buffer());
  ASSERT_TRUE(ReadParameters(&r, b.Parameters()).ok());
  Tensor x({2, 3});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
}

TEST(PersistenceTest, MismatchedShapeRejected) {
  util::Pcg32 rng(3);
  Mlp a("m", {3, 4, 2}, true);
  a.Initialize(&rng);
  util::BinaryWriter w;
  WriteParameters(a.Parameters(), &w);
  Mlp b("m", {3, 5, 2}, true);  // different hidden width
  util::BinaryReader r(w.buffer());
  EXPECT_FALSE(ReadParameters(&r, b.Parameters()).ok());
}

}  // namespace
}  // namespace ds::nn
