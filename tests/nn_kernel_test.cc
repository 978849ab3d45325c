// Tests for the zero-allocation kernel layer: bit-for-bit parity of the
// Into/fused/sparse kernels with the tensor.h reference ops, workspace
// reuse, sparse featurization parity, batched-vs-single estimation, the
// steady-state zero-allocation guarantee, and data-parallel training.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ds/mscn/dataset.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/mscn/trainer.h"
#include "ds/nn/kernels.h"
#include "ds/nn/layers.h"
#include "ds/nn/tensor.h"
#include "ds/nn/workspace.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sketch/template.h"
#include "ds/sql/binder.h"
#include "ds/util/alloc.h"
#include "ds/util/contract.h"
#include "ds/util/parallel.h"
#include "ds/util/random.h"
#include "test_util.h"

namespace ds {
namespace {

using nn::LinearBiasActInto;
using nn::MatMulInto;
using nn::MatMulTransposedAAccumulate;
using nn::MatMulTransposedBInto;
using nn::SparseLinearBiasActInto;
using nn::SparseRows;
using nn::Tensor;
using nn::Workspace;

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

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-for-bit: exact float equality, no tolerance.
    ASSERT_EQ(a.at(i), b.at(i)) << "mismatch at flat index " << i;
  }
}

// ---- Dense kernel parity ---------------------------------------------------

TEST(KernelTest, MatMulIntoMatchesReferenceBitForBit) {
  util::Pcg32 rng(7);
  // Shapes straddling the 8-wide AVX2 vector width, plus sparse-ish inputs
  // exercising the zero-skip path.
  const size_t dims[][3] = {{1, 1, 1},   {2, 3, 4},   {5, 8, 8},
                            {3, 17, 33}, {16, 64, 64}, {7, 13, 9}};
  for (const auto& d : dims) {
    for (double zf : {0.0, 0.6, 1.0}) {
      Tensor a = RandomTensor({d[0], d[1]}, &rng, zf);
      Tensor b = RandomTensor({d[1], d[2]}, &rng);
      Tensor want = nn::MatMul(a, b);
      Tensor got;
      MatMulInto(a, b, &got);
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(KernelTest, FusedLinearBiasActMatchesUnfusedBitForBit) {
  util::Pcg32 rng(8);
  for (const auto& d : {std::vector<size_t>{4, 29, 16},
                        std::vector<size_t>{1, 64, 64},
                        std::vector<size_t>{9, 7, 3}}) {
    Tensor x = RandomTensor({d[0], d[1]}, &rng, 0.5);
    Tensor w = RandomTensor({d[1], d[2]}, &rng);
    Tensor b = RandomTensor({d[2]}, &rng);
    for (bool relu : {false, true}) {
      Tensor want = nn::MatMul(x, w);
      nn::AddBiasRows(&want, b);
      if (relu) nn::ReLU::ApplyInPlace(&want);
      Tensor got;
      LinearBiasActInto(x, w, b, relu, &got);
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(KernelTest, TransposedBWithinOneUlp) {
  util::Pcg32 rng(9);
  Tensor a = RandomTensor({6, 33}, &rng);
  Tensor b = RandomTensor({11, 33}, &rng);
  Tensor want = nn::MatMulTransposedB(a, b);
  Tensor got;
  MatMulTransposedBInto(a, b, &got);
  ASSERT_TRUE(want.SameShape(got));
  for (size_t i = 0; i < want.size(); ++i) {
    // Multi-accumulator dots reassociate; error stays within a few ulps of
    // the reference for these magnitudes.
    EXPECT_NEAR(want.at(i), got.at(i),
                2e-5f * (1.0f + std::fabs(want.at(i))));
  }
}

TEST(KernelTest, TransposedAAccumulateMatchesReferencePlusAxpy) {
  util::Pcg32 rng(10);
  Tensor a = RandomTensor({12, 19}, &rng, 0.3);
  Tensor b = RandomTensor({12, 5}, &rng);
  // Reference: dW += a^T b via temporary + Axpy, starting from zero.
  Tensor want({19, 5});
  nn::Axpy(1.0f, nn::MatMulTransposedA(a, b), &want);
  Tensor got({19, 5});
  MatMulTransposedAAccumulate(a, b, &got);
  ExpectBitIdentical(want, got);
  // A second call keeps accumulating element-by-element, which is NOT the
  // same float sequence as adding a presummed tensor — the order-matched
  // reference is one pass over the row-stacked inputs [a;a], [b;b].
  MatMulTransposedAAccumulate(a, b, &got);
  Tensor a2({24, 19}), b2({24, 5});
  for (int rep = 0; rep < 2; ++rep) {
    std::copy(a.data(), a.data() + a.size(), a2.data() + rep * a.size());
    std::copy(b.data(), b.data() + b.size(), b2.data() + rep * b.size());
  }
  Tensor want2 = nn::MatMulTransposedA(a2, b2);
  ExpectBitIdentical(want2, got);
}

// ---- Sparse kernels --------------------------------------------------------

SparseRows MakeSparse(const Tensor& dense) {
  SparseRows s;
  s.Clear(dense.dim(1));
  for (size_t i = 0; i < dense.dim(0); ++i) {
    for (size_t j = 0; j < dense.dim(1); ++j) {
      const float v = dense.at(i, j);
      if (v != 0.0f) s.Push(static_cast<uint32_t>(j), v);
    }
    s.EndRow();
  }
  return s;
}

// The sparse weight-gradient kernel against the dense one on x.ToDense():
// bit for bit on the tiers that never contract to FMA, within rounding on
// the others. x has an empty row and an explicitly stored 0.0; dw starts
// from nonzero values and takes a second accumulating call.
TEST(KernelTest, SparseTransposedAAccumulateMatchesDense) {
  util::Pcg32 rng(20);
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    ASSERT_TRUE(nn::SetKernelTier(tier));
    const bool exact = tier == nn::KernelTier::kGeneric ||
                       tier == nn::KernelTier::kAvx2;
    for (size_t m : {1, 5, 13, 64, 70}) {
      for (size_t n : {0, 9}) {
        Tensor x = RandomTensor({n, 23}, &rng, 0.6);
        for (size_t j = 0; n > 3 && j < 23; ++j) x.at(3, j) = 0.0f;
        if (n > 0) x.at(0, 22) = 0.0f;
        // As MakeSparse, except that row 0 stores its last column's 0.0.
        SparseRows xs;
        xs.Clear(23);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < 23; ++j) {
            if (x.at(i, j) != 0.0f || (i == 0 && j == 22)) {
              xs.Push(static_cast<uint32_t>(j), x.at(i, j));
            }
          }
          xs.EndRow();
        }
        const Tensor dy = RandomTensor({n, m}, &rng);
        Tensor want = RandomTensor({23, m}, &rng);
        Tensor got = want;
        SparseRows xt;
        for (int call = 0; call < 2; ++call) {
          MatMulTransposedAAccumulate(xs.ToDense(), dy, &want);
          nn::SparseMatMulTransposedAAccumulate(xs, dy, &xt, &got);
        }
        ASSERT_TRUE(want.SameShape(got));
        for (size_t i = 0; i < want.size(); ++i) {
          if (exact) {
            ASSERT_EQ(want.at(i), got.at(i))
                << nn::KernelTierName(tier) << " m=" << m << " n=" << n
                << " at " << i;
          } else {
            ASSERT_NEAR(want.at(i), got.at(i),
                        1e-5f * (1.0f + std::fabs(want.at(i))))
                << nn::KernelTierName(tier) << " m=" << m << " n=" << n;
          }
        }
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

// A stored 0.0 next to an infinite dy: the dense kernel skips x == 0, so
// the sparse one must too (0 * inf would be NaN).
TEST(KernelTest, SparseTransposedAAccumulateSkipsStoredZeros) {
  SparseRows xs;
  xs.Clear(4);
  xs.Push(1, 0.0f);
  xs.Push(2, 2.0f);
  xs.EndRow();
  xs.Push(1, 3.0f);
  xs.EndRow();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor dy = Tensor::FromData({2, 2}, {inf, inf, 1.0f, -1.0f});
  Tensor want({4, 2}), got({4, 2});
  SparseRows xt;
  MatMulTransposedAAccumulate(xs.ToDense(), dy, &want);
  nn::SparseMatMulTransposedAAccumulate(xs, dy, &xt, &got);
  EXPECT_EQ(got.at(1, 0), 3.0f);
  EXPECT_EQ(got.at(1, 1), -3.0f);
  EXPECT_EQ(got.at(2, 0), inf);
  ExpectBitIdentical(want, got);
}

TEST(KernelTest, SparseRowsToDenseRoundTrips) {
  util::Pcg32 rng(11);
  Tensor dense = RandomTensor({5, 23}, &rng, 0.8);
  SparseRows s = MakeSparse(dense);
  ExpectBitIdentical(dense, s.ToDense());
}

TEST(KernelTest, SparseLinearMatchesDenseBitForBit) {
  util::Pcg32 rng(12);
  // Output widths: 16, the MSCN's 64 (one full register tile), and 20 (not
  // a multiple of any vector width: partial tiles plus a scalar tail).
  for (size_t m : {16, 64, 20}) {
    for (double zf : {0.5, 0.9, 1.0}) {
      Tensor x = RandomTensor({6, 27}, &rng, zf);
      Tensor w = RandomTensor({27, m}, &rng);
      Tensor b = RandomTensor({m}, &rng);
      SparseRows xs = MakeSparse(x);
      for (bool relu : {false, true}) {
        Tensor want, got;
        LinearBiasActInto(x, w, b, relu, &want);
        SparseLinearBiasActInto(xs, w, b, relu, &got);
        ExpectBitIdentical(want, got);
      }
    }
  }
}

TEST(KernelTest, AppendRowFromCopiesRows) {
  util::Pcg32 rng(13);
  Tensor dense = RandomTensor({4, 9}, &rng, 0.6);
  SparseRows src = MakeSparse(dense);
  SparseRows dst;
  dst.Clear(9);
  dst.AppendRowFrom(src, 2);
  dst.AppendRowFrom(src, 0);
  dst.EndRow();  // one empty padding row
  ASSERT_EQ(dst.rows(), 3u);
  Tensor d = dst.ToDense();
  for (size_t j = 0; j < 9; ++j) {
    EXPECT_EQ(d.at(0, j), dense.at(2, j));
    EXPECT_EQ(d.at(1, j), dense.at(0, j));
    EXPECT_EQ(d.at(2, j), 0.0f);
  }
}

TEST(KernelTest, KernelStatsCount) {
  auto& stats = nn::GlobalKernelStats();
  const uint64_t dense0 = stats.dense_calls.load();
  const uint64_t fused0 = stats.fused_calls.load();
  const uint64_t sparse0 = stats.sparse_calls.load();
  util::Pcg32 rng(14);
  Tensor a = RandomTensor({2, 3}, &rng), b = RandomTensor({3, 4}, &rng);
  Tensor bias = RandomTensor({4}, &rng), out;
  MatMulInto(a, b, &out);
  LinearBiasActInto(a, b, bias, true, &out);
  SparseLinearBiasActInto(MakeSparse(a), b, bias, true, &out);
  EXPECT_GT(stats.dense_calls.load(), dense0);
  EXPECT_GT(stats.fused_calls.load(), fused0);
  EXPECT_GT(stats.sparse_calls.load(), sparse0);
}

// ---- Workspace -------------------------------------------------------------

TEST(WorkspaceTest, SlotsAreStableAndCapacityStabilizes) {
  Workspace ws;
  Tensor* a = ws.Acquire();
  Tensor* b = ws.Acquire();
  EXPECT_NE(a, b);
  a->ResizeInPlace({8, 16});
  b->ResizeInPlace({4, 4});
  ws.Reset();
  // Same acquire order hands back the same slots with capacity retained.
  Tensor* a2 = ws.Acquire();
  Tensor* b2 = ws.Acquire();
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  // Every buffer starts on a 64-byte (cache-line, one zmm) boundary.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a2->data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b2->data()) % 64, 0u);
  const size_t cap = ws.capacity_bytes();
  EXPECT_FALSE(a2->ResizeInPlace({8, 16}));  // no growth needed
  EXPECT_FALSE(b2->ResizeInPlace({2, 8}));   // shrink reuses capacity
  EXPECT_EQ(ws.capacity_bytes(), cap);
}

// ---- Layer/model inference parity ------------------------------------------

TEST(KernelTest, MlpInferIntoMatchesInferAndForward) {
  util::Pcg32 rng(15);
  nn::Mlp mlp("m", {13, 32, 32}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x = RandomTensor({7, 13}, &rng, 0.4);
  Tensor fwd = mlp.Forward(x);
  Workspace ws;
  Tensor* into = mlp.InferInto(x, &ws);
  ExpectBitIdentical(fwd, *into);
  // Sparse input path.
  Tensor* sparse = mlp.InferSparseInto(MakeSparse(x), &ws);
  ExpectBitIdentical(fwd, *sparse);
}

// A first layer fed CSR rows computes the dense layer's output and weight
// gradients bit for bit, and no input gradient.
TEST(KernelTest, LinearSparseInputMatchesDense) {
  util::Pcg32 rng(19);
  nn::Linear dense("l", 27, 64), sparse("l", 27, 64);
  dense.Initialize(&rng);
  for (size_t p = 0; p < 2; ++p) {
    sparse.Parameters()[p]->value = dense.Parameters()[p]->value;
  }
  const Tensor x = RandomTensor({11, 27}, &rng, 0.8);
  const SparseRows xs = MakeSparse(x);
  const Tensor dy = RandomTensor({11, 64}, &rng);
  ExpectBitIdentical(dense.Forward(x), sparse.Forward(xs));
  EXPECT_NE(dense.Backward(dy), nullptr);
  EXPECT_EQ(sparse.Backward(dy), nullptr);
  for (size_t p = 0; p < 2; ++p) {
    ExpectBitIdentical(dense.Parameters()[p]->grad,
                       sparse.Parameters()[p]->grad);
  }
}

TEST(KernelTest, PoolIntoMatchesForward) {
  util::Pcg32 rng(16);
  Tensor flat = RandomTensor({6 * 3, 10}, &rng);
  Tensor mask({6, 3});
  for (float& v : mask.vec()) v = rng.UniformDouble(0, 1) < 0.5 ? 1.0f : 0.0f;
  Tensor want = nn::MaskedMean().Forward(flat, mask);
  Tensor got;
  nn::MaskedMean::PoolInto(flat, mask, &got);
  ExpectBitIdentical(want, got);
}

class KernelPipelineTest : public ::testing::Test {
 protected:
  KernelPipelineTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(mscn::FeatureSpace::Create(*catalog_, {}, 8).value()) {}

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  mscn::FeatureSpace space_;
};

TEST_F(KernelPipelineTest, SparseFeaturizationMatchesDense) {
  mscn::FeaturizeScratch scratch;
  mscn::SparseQueryFeatures sparse;
  // The mixed batch: 1-3 tables, joins, numeric and string literals.
  const auto batches = testutil::SparsePackingBatches(*catalog_, samples_);
  for (const auto& spec : batches.front()) {
    for (bool use_bitmaps : {true, false}) {
      ASSERT_TRUE(space_
                      .FeaturizeSparse(spec, samples_, use_bitmaps, &scratch,
                                       &sparse)
                      .ok());
      auto dense =
          use_bitmaps
              ? space_.FeaturizeWithSamples(spec, samples_).value()
              : space_
                    .Featurize(
                        mscn::ResolveStringLiterals(spec, samples_).value(),
                        {})
                    .value();
      ASSERT_EQ(sparse.tables.rows(), dense.tables.size());
      ASSERT_EQ(sparse.joins.rows(), dense.joins.size());
      ASSERT_EQ(sparse.predicates.rows(), dense.predicates.size());
      Tensor td = sparse.tables.ToDense();
      for (size_t i = 0; i < dense.tables.size(); ++i) {
        for (size_t j = 0; j < space_.table_dim(); ++j) {
          ASSERT_EQ(td.at(i, j), dense.tables[i][j]);
        }
      }
      Tensor pd = sparse.predicates.ToDense();
      for (size_t i = 0; i < dense.predicates.size(); ++i) {
        for (size_t j = 0; j < space_.pred_dim(); ++j) {
          ASSERT_EQ(pd.at(i, j), dense.predicates[i][j]);
        }
      }
      Tensor jd = sparse.joins.ToDense();
      for (size_t i = 0; i < dense.joins.size(); ++i) {
        for (size_t j = 0; j < space_.join_dim(); ++j) {
          ASSERT_EQ(jd.at(i, j), dense.joins[i][j]);
        }
      }
      // Strictly increasing columns per row (the bit-exactness invariant).
      for (const nn::SparseRows* s :
           {&sparse.tables, &sparse.joins, &sparse.predicates}) {
        for (size_t r = 0; r < s->rows(); ++r) {
          for (uint32_t e = s->row_offsets[r] + 1; e < s->row_offsets[r + 1];
               ++e) {
            ASSERT_LT(s->cols[e - 1], s->cols[e]);
          }
        }
      }
    }
  }
}

TEST_F(KernelPipelineTest, ModelInferSparseMatchesInfer) {
  // Hidden widths as in SparseLinearMatchesDenseBitForBit; batches that
  // need padding in the dense layout and template batches whose rows
  // repeat (see testutil::SparsePackingBatches).
  const auto batches = testutil::SparsePackingBatches(*catalog_, samples_);
  for (size_t hidden : {16, 64, 20}) {
    mscn::ModelConfig mc;
    mc.table_dim = space_.table_dim();
    mc.join_dim = space_.join_dim();
    mc.pred_dim = space_.pred_dim();
    mc.hidden_units = hidden;
    mscn::MscnModel model(mc);
    util::Pcg32 rng(17);
    model.Initialize(&rng);
    size_t reused = 0;
    for (const auto& specs : batches) {
      reused += testutil::ExpectInferSparseMatchesInfer(model, space_,
                                                        samples_, specs);
    }
    EXPECT_GT(reused, 0u) << "no packed row was reused";
  }
}

// ---- End-to-end estimation -------------------------------------------------

class KernelSketchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    sketch::SketchConfig config;
    config.num_samples = 16;
    config.num_training_queries = 200;
    config.num_epochs = 5;
    config.hidden_units = 16;
    config.batch_size = 32;
    config.max_tables_per_query = 3;
    config.seed = 77;
    sketch_ = new sketch::DeepSketch(
        sketch::DeepSketch::Train(*catalog_, config).value());
  }
  static void TearDownTestSuite() {
    delete sketch_;
    delete catalog_;
    sketch_ = nullptr;
    catalog_ = nullptr;
  }
  static storage::Catalog* catalog_;
  static sketch::DeepSketch* sketch_;
};

storage::Catalog* KernelSketchTest::catalog_ = nullptr;
sketch::DeepSketch* KernelSketchTest::sketch_ = nullptr;

TEST_F(KernelSketchTest, BatchedEstimatesMatchOneAtATime) {
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM genre WHERE name = 'g1'",
        "SELECT COUNT(*) FROM movie WHERE year > 2001"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  auto batched = sketch_->EstimateMany(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(batched[i].ok());
    // Single-spec batches pad differently, but pooling is padding-invariant
    // and the kernels are bit-exact, so the estimates are identical doubles.
    std::vector<workload::QuerySpec> one = {specs[i]};
    auto single = sketch_->EstimateMany(one);
    ASSERT_TRUE(single[0].ok());
    EXPECT_DOUBLE_EQ(*batched[i], *single[0]) << i;
    // EstimateCardinality is that one-element batch. (The dense reference,
    // MakeBatch + MscnModel::InferInto, is ModelInferSparseMatchesInfer's.)
    EXPECT_DOUBLE_EQ(*batched[i],
                     sketch_->EstimateCardinality(specs[i]).value())
        << i;
  }
}

TEST_F(KernelSketchTest, SteadyStateEstimationAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
        "AND r.score > 1.5",
        "SELECT COUNT(*) FROM movie WHERE year > 2001"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  // A template batch: consecutive instances reuse their predecessor's rows.
  const sql::BoundQuery bound =
      sketch_->BindSql("SELECT COUNT(*) FROM movie m, rating r "
                       "WHERE r.movie_id = m.id AND r.score > 1.5 "
                       "AND r.votes < ?")
          .value();
  auto expanded =
      sketch::InstantiateTemplate(bound, sketch_->samples()).value();
  std::vector<workload::QuerySpec> instances;
  for (auto& inst : expanded) instances.push_back(std::move(inst.spec));
  ASSERT_GE(instances.size(), 3u);
  std::vector<Result<double>> out;
  // Warm the thread-local scratch and the output vector.
  for (int i = 0; i < 2; ++i) {
    sketch_->EstimateManyInto(specs, &out);
    sketch_->EstimateManyInto(instances, &out);
  }
  const uint64_t before = util::AllocCount();
  {
    // Arm runtime DS_NO_ALLOC enforcement so the guarded regions inside the
    // kernels and the EstimateManyInto inference tail verify their own zero
    // allocation deltas; kThrow turns any trip into a test failure instead
    // of an abort.
    util::ScopedContractPolicy policy(util::ContractPolicy::kThrow);
    const bool prev = util::SetNoAllocEnforcement(true);
    for (int i = 0; i < 10; ++i) {
      sketch_->EstimateManyInto(specs, &out);
      sketch_->EstimateManyInto(instances, &out);
    }
    util::SetNoAllocEnforcement(prev);
  }
  EXPECT_EQ(util::AllocCount() - before, 0u)
      << "steady-state EstimateManyInto batches must not allocate";
}

// ---- Data-parallel training ------------------------------------------------

class ParallelTrainTest : public ::testing::Test {
 protected:
  ParallelTrainTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(mscn::FeatureSpace::Create(*catalog_, {}, 8).value()) {
    const char* sqls[] = {
        "SELECT COUNT(*) FROM movie",
        "SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie WHERE year > 2005",
        "SELECT COUNT(*) FROM genre",
        "SELECT COUNT(*) FROM rating WHERE score > 2.0",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM movie WHERE genre_id = 2",
        "SELECT COUNT(*) FROM rating WHERE votes < 50",
        "SELECT COUNT(*) FROM movie m, genre g WHERE m.genre_id = g.id",
        "SELECT COUNT(*) FROM movie WHERE year < 2008",
        "SELECT COUNT(*) FROM rating",
        "SELECT COUNT(*) FROM genre WHERE id > 2",
    };
    mscn::FeaturizeScratch scratch;
    for (const char* sql : sqls) {
      auto spec = sql::ParseAndBind(*catalog_, sql).value();
      dataset_.features.emplace_back();
      EXPECT_TRUE(space_
                      .FeaturizeSparse(spec, samples_, /*use_bitmaps=*/true,
                                       &scratch, &dataset_.features.back())
                      .ok());
      dataset_.labels.push_back(static_cast<double>(
          std::max<uint64_t>(testutil::BruteForceCount(*catalog_, spec), 1)));
    }
  }

  // One full-batch optimizer step at the given thread count; returns the
  // resulting parameter values.
  std::vector<float> StepOnce(size_t threads, double* loss_out) {
    mscn::ModelConfig mc;
    mc.table_dim = space_.table_dim();
    mc.join_dim = space_.join_dim();
    mc.pred_dim = space_.pred_dim();
    mc.hidden_units = 8;
    mscn::MscnModel model(mc);
    util::Pcg32 rng(23);
    model.Initialize(&rng);
    mscn::TrainerOptions opts;
    opts.epochs = 1;
    opts.batch_size = dataset_.size();  // a single full batch
    opts.validation_fraction = 0;
    opts.seed = 5;
    opts.threads = threads;
    mscn::Trainer trainer(opts);
    auto report = trainer.Train(&model, dataset_, space_).value();
    *loss_out = report.epochs.back().train_loss;
    std::vector<float> params;
    for (nn::Parameter* p : model.Parameters()) {
      params.insert(params.end(), p->value.vec().begin(),
                    p->value.vec().end());
    }
    return params;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  mscn::FeatureSpace space_;
  mscn::Dataset dataset_;
};

TEST_F(ParallelTrainTest, ShardedGradientsMatchSequential) {
  // Gradient check across thread counts: a single full-batch Adam step must
  // land on (numerically) the same parameters whether gradients come from
  // the sequential path or from 2/4 sharded workers reduced in order.
  double loss1 = 0, loss_t = 0;
  std::vector<float> seq = StepOnce(1, &loss1);
  for (size_t threads : {2u, 4u}) {
    std::vector<float> par = StepOnce(threads, &loss_t);
    ASSERT_EQ(seq.size(), par.size());
    EXPECT_NEAR(loss1, loss_t, 1e-9 * (1.0 + std::fabs(loss1)))
        << threads << " threads";
    for (size_t i = 0; i < seq.size(); ++i) {
      ASSERT_NEAR(seq[i], par[i], 1e-4f) << "param " << i << " at "
                                         << threads << " threads";
    }
  }
}

TEST_F(ParallelTrainTest, ThreadsOneIsExactlySequential) {
  // threads=1 runs the training step on the model itself, with no replica
  // and no gradient reduction, so two runs with the same seed are
  // bit-identical — including the final loss.
  auto run = [&](size_t threads) {
    mscn::ModelConfig mc;
    mc.table_dim = space_.table_dim();
    mc.join_dim = space_.join_dim();
    mc.pred_dim = space_.pred_dim();
    mc.hidden_units = 8;
    mscn::MscnModel model(mc);
    util::Pcg32 rng(29);
    model.Initialize(&rng);
    mscn::TrainerOptions opts;
    opts.epochs = 4;
    opts.batch_size = 4;
    opts.validation_fraction = 0;
    opts.seed = 11;
    opts.threads = threads;
    mscn::Trainer trainer(opts);
    return trainer.Train(&model, dataset_, space_).value();
  };
  auto a = run(1);
  auto b = run(1);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
  }
}

TEST_F(ParallelTrainTest, WarmTrainingStepAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  mscn::ModelConfig mc;
  mc.table_dim = space_.table_dim();
  mc.join_dim = space_.join_dim();
  mc.pred_dim = space_.pred_dim();
  mc.hidden_units = 8;
  mscn::MscnModel model(mc);
  util::Pcg32 rng(31);
  model.Initialize(&rng);
  nn::LogNormalizer norm;
  norm.max_log = std::log(100.0);
  std::vector<size_t> indices(dataset_.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  mscn::TrainingStep step;
  const double first = step.Run(&model, dataset_, space_, indices, norm,
                                mscn::LossKind::kQError);
  const uint64_t before = util::AllocCount();
  const double second = step.Run(&model, dataset_, space_, indices, norm,
                                 mscn::LossKind::kQError);
  EXPECT_EQ(util::AllocCount() - before, 0u)
      << "a warm training step must not allocate";
  EXPECT_EQ(first, second);  // no optimizer step in between
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  util::ParallelFor(hits.size(), 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  util::ParallelFor(0, 4, [&](size_t) { FAIL(); });
}

}  // namespace
}  // namespace ds
