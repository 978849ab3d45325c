#include "ds/nn/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ds/nn/kernels_dispatch.h"
#include "ds/util/contract.h"
#include "ds/util/cpuid.h"

namespace ds::nn {

KernelStats& GlobalKernelStats() {
  static KernelStats* stats = new KernelStats();
  return *stats;
}

namespace {

void CountKernel(std::atomic<uint64_t>& which, uint64_t macs, uint64_t bytes) {
  KernelStats& s = GlobalKernelStats();
  which.fetch_add(1, std::memory_order_relaxed);
  s.flops.fetch_add(2 * macs, std::memory_order_relaxed);
  s.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

constexpr int kNumTiers = 4;

// Tables for every tier this process can actually run: compiled in
// (non-null getter) AND supported by CPU + OS state saving. Computed once.
const detail::KernelOps* const* AvailableOps() {
  static const detail::KernelOps* const* table = [] {
    static const detail::KernelOps* ops[kNumTiers] = {};
    const util::CpuFeatures& f = util::DetectCpuFeatures();
    ops[0] = detail::GetGenericOps();
    DS_REQUIRE(ops[0] != nullptr, "generic kernel tier missing from binary");
    if (f.avx2 && f.f16c) {
      ops[1] = detail::GetAvx2Ops();
      if (f.fma) ops[2] = detail::GetAvx2FmaOps();
      if (f.avx512f && f.avx512bw && f.avx512vl && f.fma) {
        ops[3] = detail::GetAvx512Ops();
      }
    }
    return static_cast<const detail::KernelOps* const*>(ops);
  }();
  return table;
}

/// Best tier whose fp32 numerics are bit-identical to the references
/// (generic/AVX2 — never FMA), i.e. the safe default.
KernelTier BestBitStableTier() {
  return AvailableOps()[1] != nullptr ? KernelTier::kAvx2
                                      : KernelTier::kGeneric;
}

KernelTier ResolveTierFromEnv() {
  const KernelTier fallback = BestBitStableTier();
  const char* env = std::getenv("DS_KERNEL_TIER");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string req(env);
  const detail::KernelOps* const* ops = AvailableOps();
  if (req == "native") {
    for (int t = kNumTiers - 1; t >= 0; --t) {
      if (ops[t] != nullptr) return static_cast<KernelTier>(t);
    }
  }
  int want = -1;
  if (req == "generic") want = 0;
  else if (req == "avx2") want = 1;
  else if (req == "fma" || req == "avx2fma" || req == "avx2+fma") want = 2;
  else if (req == "avx512") want = 3;
  if (want < 0) {
    std::fprintf(stderr,
                 "[ds] DS_KERNEL_TIER='%s' not recognized (want generic, "
                 "avx2, fma, avx512, or native); using %s\n",
                 env, KernelTierName(fallback));
    return fallback;
  }
  if (ops[want] == nullptr) {
    std::fprintf(stderr,
                 "[ds] DS_KERNEL_TIER=%s is not available on this "
                 "CPU/build; using %s\n",
                 env, KernelTierName(fallback));
    return fallback;
  }
  return static_cast<KernelTier>(want);
}

// Active tier index; -1 until first use. Resolution races are benign: every
// racer computes the same value (thread-safe function-local static).
std::atomic<int> g_tier{-1};

int ActiveTierIndex() {
  int t = g_tier.load(std::memory_order_acquire);
  if (t < 0) {
    static const int resolved = static_cast<int>(ResolveTierFromEnv());
    g_tier.store(resolved, std::memory_order_release);
    t = resolved;
  }
  return t;
}

const detail::KernelOps& Ops() { return *AvailableOps()[ActiveTierIndex()]; }

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric: return "generic";
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kAvx2Fma: return "fma";
    case KernelTier::kAvx512: return "avx512";
  }
  return "unknown";
}

std::vector<KernelTier> AvailableKernelTiers() {
  std::vector<KernelTier> tiers;
  const detail::KernelOps* const* ops = AvailableOps();
  for (int t = 0; t < kNumTiers; ++t) {
    if (ops[t] != nullptr) tiers.push_back(static_cast<KernelTier>(t));
  }
  return tiers;
}

KernelTier ActiveKernelTier() {
  return static_cast<KernelTier>(ActiveTierIndex());
}

bool SetKernelTier(KernelTier tier) {
  const int t = static_cast<int>(tier);
  if (t < 0 || t >= kNumTiers || AvailableOps()[t] == nullptr) return false;
  g_tier.store(t, std::memory_order_release);
  return true;
}

bool KernelsVectorized() {
  return ActiveKernelTier() != KernelTier::kGeneric;
}

Tensor SparseRows::ToDense() const {
  Tensor t({rows(), dim});
  for (size_t i = 0; i < rows(); ++i) {
    float* row = t.data() + i * dim;
    for (uint32_t e = row_offsets[i]; e < row_offsets[i + 1]; ++e) {
      row[cols[e]] = vals[e];
    }
  }
  return t;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulInto wants 2D operands, got rank %zu x rank %zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_REQUIRE(k == b.dim(0),
             "MatMulInto inner dims disagree: [%zu,%zu] x [%zu,%zu]", n, k,
             b.dim(0), m);
  c->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().matmul(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void MatMulTransposedBInto(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulTransposedBInto wants 2D operands, got rank %zu x rank "
             "%zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(0);
  DS_REQUIRE(k == b.dim(1),
             "MatMulTransposedBInto inner dims disagree: [%zu,%zu] x "
             "[%zu,%zu]^T",
             n, k, m, b.dim(1));
  c->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().matmul_tb(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void MatMulTransposedAAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulTransposedAAccumulate wants 2D operands, got rank %zu x "
             "rank %zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_REQUIRE(n == b.dim(0),
             "MatMulTransposedAAccumulate outer dims disagree: [%zu,%zu]^T "
             "x [%zu,%zu]",
             n, k, b.dim(0), m);
  DS_REQUIRE(c->dim(0) == k && c->dim(1) == m,
             "MatMulTransposedAAccumulate accumulator is [%zu,%zu], wants "
             "[%zu,%zu]",
             c->dim(0), c->dim(1), k, m);
  DS_NO_ALLOC_BEGIN();
  Ops().matmul_ta_acc(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + n * m + k * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void SparseMatMulTransposedAAccumulate(const SparseRows& x, const Tensor& dy,
                                       SparseRows* xt, Tensor* dw) {
  const size_t n = x.rows(), k = x.dim;
  DS_REQUIRE(dy.rank() == 2 && dy.dim(0) == n,
             "SparseMatMulTransposedAAccumulate wants dy [%zu, m] for %zu "
             "rows, got rank %zu",
             n, n, dy.rank());
  const size_t m = dy.dim(1);
  DS_REQUIRE(dw->rank() == 2 && dw->dim(0) == k && dw->dim(1) == m,
             "SparseMatMulTransposedAAccumulate accumulator wants [%zu,%zu]",
             k, m);
  // Counting sort of x's nonzeros by column: row kk of xt lists column kk
  // of x with its row indices ascending (rows are visited in order).
  xt->dim = n;
  xt->row_offsets.assign(k + 1, 0);
  for (size_t e = 0; e < x.nonzeros(); ++e) {
    xt->row_offsets[x.cols[e] + 1] += x.vals[e] != 0.0f;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    xt->row_offsets[kk + 1] += xt->row_offsets[kk];
  }
  const size_t nnz = xt->row_offsets[k];
  xt->cols.reserve(nnz);  // exactly the batch's count, never a doubling
  xt->vals.reserve(nnz);
  xt->cols.resize(nnz);
  xt->vals.resize(nnz);
  DS_NO_ALLOC_BEGIN();
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t e = x.row_offsets[i]; e < x.row_offsets[i + 1]; ++e) {
      if (x.vals[e] == 0.0f) continue;  // the dense kernel skips x == 0
      const uint32_t slot = xt->row_offsets[x.cols[e]]++;
      xt->cols[slot] = static_cast<uint32_t>(i);
      xt->vals[slot] = x.vals[e];
    }
  }
  // The fill advanced each start to the next row's; shift them back.
  for (size_t kk = k; kk > 0; --kk) {
    xt->row_offsets[kk] = xt->row_offsets[kk - 1];
  }
  xt->row_offsets[0] = 0;
  Ops().sparse_matmul_ta_acc(xt->row_offsets.data(), xt->cols.data(),
                             xt->vals.data(), k, dy.data(), dw->data(), m);
  CountKernel(GlobalKernelStats().sparse_calls, nnz * m,
              (x.nonzeros() * 2 * sizeof(uint32_t)) +
                  (x.nonzeros() + n * m + 2 * k * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void LinearBiasActInto(const Tensor& x, const Tensor& weight,
                       const Tensor& bias, bool fuse_relu, Tensor* y) {
  DS_REQUIRE(x.rank() == 2 && weight.rank() == 2 && bias.rank() == 1,
             "LinearBiasActInto wants x:2D weight:2D bias:1D, got %zu/%zu/"
             "%zu",
             x.rank(), weight.rank(), bias.rank());
  const size_t n = x.dim(0), k = x.dim(1), m = weight.dim(1);
  DS_REQUIRE(k == weight.dim(0),
             "LinearBiasActInto dims disagree: x [%zu,%zu] x weight "
             "[%zu,%zu]",
             n, k, weight.dim(0), m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().linear(x.data(), weight.data(), bias.data(), fuse_relu, y->data(), n,
               k, m);
  CountKernel(GlobalKernelStats().fused_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void LinearBiasActPackedInto(const Tensor& x, const PackedLinear& weight,
                             const Tensor& bias, bool fuse_relu, Tensor* y) {
  DS_REQUIRE(x.rank() == 2 && bias.rank() == 1,
             "LinearBiasActPackedInto wants x:2D bias:1D, got %zu/%zu",
             x.rank(), bias.rank());
  DS_REQUIRE(weight.mode != QuantMode::kFp32,
             "LinearBiasActPackedInto needs packed (int8/fp16) weights; use "
             "LinearBiasActInto for fp32");
  const size_t n = x.dim(0), k = x.dim(1), m = weight.out;
  DS_REQUIRE(k == weight.in,
             "LinearBiasActPackedInto dims disagree: x [%zu,%zu] x packed "
             "[%zu,%zu]",
             n, k, weight.in, m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  size_t weight_bytes = 0;
  if (weight.mode == QuantMode::kInt8) {
    Ops().linear_i8(x.data(), weight.q.data(), weight.scales.data(),
                    bias.data(), fuse_relu, y->data(), n, k, m);
    weight_bytes = k * m * sizeof(int8_t) + m * sizeof(float);
  } else {
    Ops().linear_f16(x.data(), weight.half.data(), bias.data(), fuse_relu,
                     y->data(), n, k, m);
    weight_bytes = k * m * sizeof(uint16_t);
  }
  CountKernel(GlobalKernelStats().quant_calls, n * k * m,
              weight_bytes + (n * k + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void SparseLinearBiasActInto(const SparseRows& x, const Tensor& weight,
                             const Tensor& bias, bool fuse_relu, Tensor* y) {
  DS_REQUIRE(weight.rank() == 2 && bias.rank() == 1,
             "SparseLinearBiasActInto wants weight:2D bias:1D, got %zu/%zu",
             weight.rank(), bias.rank());
  const size_t n = x.rows(), k = x.dim, m = weight.dim(1);
  DS_REQUIRE(k == weight.dim(0),
             "SparseLinearBiasActInto dims disagree: x [%zu,%zu] x weight "
             "[%zu,%zu]",
             n, k, weight.dim(0), m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().sparse_linear(x.row_offsets.data(), x.cols.data(), x.vals.data(), n,
                      weight.data(), bias.data(), fuse_relu, y->data(), m);
  CountKernel(GlobalKernelStats().sparse_calls, x.nonzeros() * m,
              (x.nonzeros() * 2 * sizeof(uint32_t)) +
                  (x.nonzeros() + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void SparseLinearBiasActPackedInto(const SparseRows& x,
                                   const PackedLinear& weight,
                                   const Tensor& bias, bool fuse_relu,
                                   Tensor* y) {
  DS_REQUIRE(bias.rank() == 1,
             "SparseLinearBiasActPackedInto wants bias:1D, got %zu",
             bias.rank());
  DS_REQUIRE(weight.mode != QuantMode::kFp32,
             "SparseLinearBiasActPackedInto needs packed (int8/fp16) "
             "weights; use SparseLinearBiasActInto for fp32");
  const size_t n = x.rows(), k = x.dim, m = weight.out;
  DS_REQUIRE(k == weight.in,
             "SparseLinearBiasActPackedInto dims disagree: x [%zu,%zu] x "
             "packed [%zu,%zu]",
             n, k, weight.in, m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  size_t weight_bytes = 0;
  if (weight.mode == QuantMode::kInt8) {
    Ops().sparse_linear_i8(x.row_offsets.data(), x.cols.data(),
                           x.vals.data(), n, weight.q.data(),
                           weight.scales.data(), bias.data(), fuse_relu,
                           y->data(), m);
    weight_bytes = k * m * sizeof(int8_t) + m * sizeof(float);
  } else {
    Ops().sparse_linear_f16(x.row_offsets.data(), x.cols.data(),
                            x.vals.data(), n, weight.half.data(),
                            bias.data(), fuse_relu, y->data(), m);
    weight_bytes = k * m * sizeof(uint16_t);
  }
  CountKernel(GlobalKernelStats().quant_calls, x.nonzeros() * m,
              weight_bytes + (x.nonzeros() * 2 * sizeof(uint32_t)) +
                  (x.nonzeros() + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

}  // namespace ds::nn
