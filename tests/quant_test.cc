// Tests for weight quantization (ds/nn/quant.h), the packed inference
// kernels and runtime kernel-tier dispatch — the pieces behind "quantized
// inference with runtime SIMD dispatch".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ds/nn/kernels.h"
#include "ds/nn/layers.h"
#include "ds/nn/quant.h"
#include "ds/nn/tensor.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"
#include "test_util.h"

namespace ds {
namespace {

using nn::PackedLinear;
using nn::PackWeights;
using nn::QuantMode;
using nn::Tensor;

Tensor RandomTensor(const std::vector<size_t>& shape, util::Pcg32* rng,
                    double zero_fraction = 0.0) {
  Tensor t(shape);
  for (float& v : t.vec()) {
    v = rng->UniformDouble(0, 1) < zero_fraction
            ? 0.0f
            : static_cast<float>(rng->Normal());
  }
  return t;
}

// ---- int8 packing properties ----------------------------------------------

TEST(QuantTest, Int8ZeroChannelGetsUnitScaleAndZeroCodes) {
  Tensor w({3, 2});
  // Column 0 all zero, column 1 ordinary values.
  w.at(0, 1) = 0.5f;
  w.at(1, 1) = -1.0f;
  w.at(2, 1) = 0.25f;
  PackedLinear p = PackWeights(w, QuantMode::kInt8);
  ASSERT_EQ(p.scales.size(), 2u);
  EXPECT_EQ(p.scales[0], 1.0f);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(p.q[i * 2 + 0], 0);
  Tensor deq = nn::DequantizeWeights(p);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(deq.at(i, 0), 0.0f);
}

TEST(QuantTest, Int8SaturatesSymmetricallyNever128) {
  // A negative-heavy channel: the amax element must map exactly to -127,
  // and no code may fall outside [-127, 127] (symmetric range; -128 would
  // break the |q| <= 127 contract the scale math assumes).
  Tensor w({4, 1});
  w.at(0, 0) = -8.0f;
  w.at(1, 0) = -7.9999f;  // rounds to the clamp edge
  w.at(2, 0) = 4.0f;
  w.at(3, 0) = -0.0f;
  PackedLinear p = PackWeights(w, QuantMode::kInt8);
  ASSERT_EQ(p.q.size(), 4u);
  EXPECT_EQ(p.q[0], -127);
  for (int8_t code : p.q) {
    EXPECT_GE(code, -127);
    EXPECT_LE(code, 127);
  }
  EXPECT_FLOAT_EQ(p.scales[0], 8.0f / 127.0f);
}

TEST(QuantTest, Int8RoundTripErrorBoundedByHalfScale) {
  util::Pcg32 rng(11);
  Tensor w = RandomTensor({37, 19}, &rng, 0.2);
  PackedLinear p = PackWeights(w, QuantMode::kInt8);
  Tensor deq = nn::DequantizeWeights(p);
  ASSERT_TRUE(deq.SameShape(w));
  for (size_t i = 0; i < w.dim(0); ++i) {
    for (size_t j = 0; j < w.dim(1); ++j) {
      // Rounding to the nearest code means at most half a quantization
      // step of error per weight.
      EXPECT_LE(std::fabs(w.at(i, j) - deq.at(i, j)),
                0.5f * p.scales[j] + 1e-6f)
          << i << "," << j;
    }
  }
}

// ---- fp16 conversions ------------------------------------------------------

TEST(QuantTest, F16RoundTripExactForRepresentableValues) {
  const float exact[] = {0.0f,  -0.0f, 1.0f,   -2.5f,  0.09375f,
                         1024.0f, 65504.0f /* fp16 max */, -65504.0f};
  for (float v : exact) {
    EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(v)), v) << v;
  }
  // Subnormal fp16 (smallest positive = 2^-24) survives the round trip.
  const float sub = std::ldexp(1.0f, -24);
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(sub)), sub);
}

TEST(QuantTest, F16RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1.0 and the next fp16 value 1 + 2^-10;
  // round-to-nearest-even picks the even mantissa: 1.0.
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(halfway)), 1.0f);
  // 1 + 3*2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9; even is the
  // larger mantissa here.
  const float halfway2 = 1.0f + 3 * std::ldexp(1.0f, -11);
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(halfway2)),
            1.0f + std::ldexp(1.0f, -9));
}

TEST(QuantTest, F16HandlesInfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(inf)), inf);
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      nn::F16ToF32(nn::F32ToF16(std::numeric_limits<float>::quiet_NaN()))));
  // Overflow past the fp16 range becomes infinity, not garbage.
  EXPECT_EQ(nn::F16ToF32(nn::F32ToF16(1e38f)), inf);
}

// ---- PackedLinear serialization -------------------------------------------

TEST(QuantTest, PackedLinearSerializationRoundTrip) {
  util::Pcg32 rng(13);
  Tensor w = RandomTensor({12, 7}, &rng);
  for (QuantMode mode : {QuantMode::kInt8, QuantMode::kFp16}) {
    PackedLinear p = PackWeights(w, mode);
    util::BinaryWriter writer;
    p.Write(&writer);
    util::BinaryReader reader(writer.buffer());
    auto q = PackedLinear::Read(&reader);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q->mode, p.mode);
    EXPECT_EQ(q->in, p.in);
    EXPECT_EQ(q->out, p.out);
    EXPECT_EQ(q->q, p.q);
    EXPECT_EQ(q->half, p.half);
    EXPECT_EQ(q->scales, p.scales);
  }
}

// ---- Packed kernel parity --------------------------------------------------

nn::SparseRows ToSparse(const Tensor& dense) {
  nn::SparseRows s;
  s.Clear(dense.dim(1));
  for (size_t i = 0; i < dense.dim(0); ++i) {
    for (size_t j = 0; j < dense.dim(1); ++j) {
      if (dense.at(i, j) != 0.0f) {
        s.Push(static_cast<uint32_t>(j), dense.at(i, j));
      }
    }
    s.EndRow();
  }
  return s;
}

TEST(QuantTest, Fp16PackedKernelBitMatchesFp32OnDequantizedWeights) {
  // f16 -> f32 load is exact and the packed kernel keeps the fp32
  // accumulation order, so running the fp32 kernel on the dequantized
  // matrix must reproduce the packed kernel bit for bit.
  util::Pcg32 rng(17);
  Tensor x = RandomTensor({9, 33}, &rng, 0.4);
  Tensor w = RandomTensor({33, 14}, &rng);
  Tensor b = RandomTensor({14}, &rng);
  PackedLinear p = PackWeights(w, QuantMode::kFp16);
  Tensor deq = nn::DequantizeWeights(p);
  Tensor want, got;
  nn::LinearBiasActInto(x, deq, b, true, &want);
  nn::LinearBiasActPackedInto(x, p, b, true, &got);
  ASSERT_TRUE(want.SameShape(got));
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.at(i), got.at(i)) << "flat index " << i;
  }
}

TEST(QuantTest, Int8PackedKernelCloseToFp32OnDequantizedWeights) {
  // int8 applies the channel scale once per output instead of per element,
  // so parity with the dequantized fp32 product is tolerance-bounded (the
  // two differ only in rounding, not in the quantization error itself).
  util::Pcg32 rng(19);
  Tensor x = RandomTensor({8, 40}, &rng, 0.3);
  Tensor w = RandomTensor({40, 11}, &rng);
  Tensor b = RandomTensor({11}, &rng);
  PackedLinear p = PackWeights(w, QuantMode::kInt8);
  Tensor deq = nn::DequantizeWeights(p);
  Tensor want, got;
  nn::LinearBiasActInto(x, deq, b, true, &want);
  nn::LinearBiasActPackedInto(x, p, b, true, &got);
  ASSERT_TRUE(want.SameShape(got));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want.at(i), got.at(i),
                1e-4 * std::max(1.0f, std::fabs(want.at(i))))
        << "flat index " << i;
  }
}

TEST(QuantTest, SparsePackedMatchesDensePackedBitForBit) {
  util::Pcg32 rng(23);
  for (QuantMode mode : {QuantMode::kInt8, QuantMode::kFp16}) {
    // Output widths 13, 64 (the MSCN's) and 20, as in nn_kernel_test.
    for (size_t m : {13, 64, 20}) {
      Tensor x = RandomTensor({6, 50}, &rng, 0.9);
      Tensor w = RandomTensor({50, m}, &rng);
      Tensor b = RandomTensor({m}, &rng);
      nn::SparseRows xs = ToSparse(x);
      PackedLinear p = PackWeights(w, mode);
      Tensor dense, sparse;
      nn::LinearBiasActPackedInto(x, p, b, true, &dense);
      nn::SparseLinearBiasActPackedInto(xs, p, b, true, &sparse);
      ASSERT_TRUE(dense.SameShape(sparse));
      for (size_t i = 0; i < dense.size(); ++i) {
        ASSERT_EQ(dense.at(i), sparse.at(i)) << "m " << m << " index " << i;
      }
    }
  }
}

TEST(QuantTest, PackedModelInferSparseMatchesInfer) {
  // nn_kernel_test's ModelInferSparseMatchesInfer with packed weights: the
  // padding-free, row-reusing sparse path must match the padded dense one
  // bit for bit in every quant mode.
  auto catalog = testutil::MakeTinyCatalog();
  const est::SampleSet samples = est::SampleSet::Build(*catalog, 8, 3).value();
  const mscn::FeatureSpace space =
      mscn::FeatureSpace::Create(*catalog, {}, 8).value();
  const auto batches = testutil::SparsePackingBatches(*catalog, samples);
  for (QuantMode mode : {QuantMode::kInt8, QuantMode::kFp16}) {
    for (size_t hidden : {16, 64, 20}) {
      mscn::ModelConfig mc;
      mc.table_dim = space.table_dim();
      mc.join_dim = space.join_dim();
      mc.pred_dim = space.pred_dim();
      mc.hidden_units = hidden;
      mscn::MscnModel model(mc);
      util::Pcg32 rng(17);
      model.Initialize(&rng);
      model.Pack(mode);
      for (const auto& specs : batches) {
        testutil::ExpectInferSparseMatchesInfer(model, space, samples, specs);
      }
    }
  }
}

TEST(QuantTest, LinearPackRoutesInferenceAndUnpacks) {
  util::Pcg32 rng(29);
  nn::Linear layer("l", 24, 8);
  layer.Initialize(&rng);
  Tensor x = RandomTensor({5, 24}, &rng);
  Tensor fp32, int8, back;
  layer.InferInto(x, /*fuse_relu=*/false, &fp32);
  layer.Pack(QuantMode::kInt8);
  EXPECT_EQ(layer.quant_mode(), QuantMode::kInt8);
  layer.InferInto(x, /*fuse_relu=*/false, &int8);
  ASSERT_TRUE(fp32.SameShape(int8));
  for (size_t i = 0; i < fp32.size(); ++i) {
    // Weight rounding moves outputs a little, but quantization must stay
    // a small perturbation on well-scaled layers.
    EXPECT_NEAR(fp32.at(i), int8.at(i),
                0.05 * std::max(1.0f, std::fabs(fp32.at(i))));
  }
  layer.Pack(QuantMode::kFp32);  // unpack restores the exact fp32 path
  EXPECT_EQ(layer.quant_mode(), QuantMode::kFp32);
  layer.InferInto(x, /*fuse_relu=*/false, &back);
  for (size_t i = 0; i < fp32.size(); ++i) {
    ASSERT_EQ(fp32.at(i), back.at(i));
  }
}

// ---- Runtime dispatch ------------------------------------------------------

TEST(DispatchTest, GenericTierAlwaysAvailable) {
  const auto tiers = nn::AvailableKernelTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), nn::KernelTier::kGeneric);
  for (size_t i = 1; i < tiers.size(); ++i) {
    EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
  }
}

TEST(DispatchTest, SetTierRoundTripsThroughEveryAvailableTier) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    ASSERT_TRUE(nn::SetKernelTier(t)) << nn::KernelTierName(t);
    EXPECT_EQ(nn::ActiveKernelTier(), t);
    EXPECT_EQ(nn::KernelsVectorized(), t != nn::KernelTier::kGeneric);
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(DispatchTest, EveryTierAgreesWithGenericOnTheFusedKernel) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  util::Pcg32 rng(31);
  Tensor x = RandomTensor({7, 45}, &rng, 0.5);
  Tensor w = RandomTensor({45, 18}, &rng);
  Tensor b = RandomTensor({18}, &rng);
  ASSERT_TRUE(nn::SetKernelTier(nn::KernelTier::kGeneric));
  Tensor want;
  nn::LinearBiasActInto(x, w, b, true, &want);
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    if (t == nn::KernelTier::kGeneric) continue;
    ASSERT_TRUE(nn::SetKernelTier(t));
    Tensor got;
    nn::LinearBiasActInto(x, w, b, true, &got);
    ASSERT_TRUE(want.SameShape(got));
    for (size_t i = 0; i < want.size(); ++i) {
      if (t == nn::KernelTier::kAvx2) {
        // Same mul+add order as generic: bit-identical, no tolerance.
        ASSERT_EQ(want.at(i), got.at(i))
            << nn::KernelTierName(t) << " flat index " << i;
      } else {
        // FMA-contracting tiers round once per multiply-add.
        ASSERT_NEAR(want.at(i), got.at(i),
                    1e-4 * std::max(1.0f, std::fabs(want.at(i))))
            << nn::KernelTierName(t) << " flat index " << i;
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(DispatchTest, UnavailableTierIsRejected) {
  const auto tiers = nn::AvailableKernelTiers();
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (int t = 0; t <= static_cast<int>(nn::KernelTier::kAvx512); ++t) {
    const nn::KernelTier tier = static_cast<nn::KernelTier>(t);
    const bool available =
        std::find(tiers.begin(), tiers.end(), tier) != tiers.end();
    EXPECT_EQ(nn::SetKernelTier(tier), available) << nn::KernelTierName(tier);
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

}  // namespace
}  // namespace ds
