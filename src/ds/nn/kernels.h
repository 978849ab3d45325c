// Zero-allocation, runtime-dispatched kernels for the NN hot paths.
//
// The functional ops in tensor.h allocate their result and keep a scalar
// triple loop; they remain the reference implementations. The kernels here
// are the serving/training hot path:
//
//   * "-Into" variants write into caller-provided, pre-sized tensors, so a
//     steady-state inference batch touches no allocator at all (pair them
//     with nn::Workspace).
//   * Every kernel body is compiled several times into *tiers* — generic
//     (portable, auto-vectorizable), AVX2, AVX2+FMA, and AVX-512 — in
//     separate translation units with per-file target flags (see
//     src/CMakeLists.txt). A dispatch table picks the tier at first use
//     from runtime CPU detection (ds/util/cpuid.h), so one binary runs
//     correctly on baseline x86-64 and fast on whatever it lands on. The
//     DS_KERNEL_TIER environment variable (generic|avx2|fma|avx512|native)
//     overrides the choice; SetKernelTier() does the same programmatically
//     for tests and benches.
//   * Numerics per tier: generic and AVX2 use mul+add in the same k-order,
//     so they are bit-for-bit identical to the tensor.h references (and to
//     each other) — which is why AVX2 is the *default* ceiling: estimates
//     stay reproducible across machines. The FMA and AVX-512 tiers contract
//     to fused multiply-add (rounding once instead of twice); they are
//     opt-in via DS_KERNEL_TIER=fma|avx512|native and parity-gated to a
//     tolerance by bench_nn_kernels check=1.
//   * LinearBiasActInto fuses x*W + b (+ ReLU) into one pass; the Packed
//     variants read int8/fp16 packed weights (ds/nn/quant.h), applying
//     per-output-channel scales in the same fused tail.
//   * SparseRows is a CSR representation of the MSCN's one-hot/bitmap
//     feature rows (overwhelmingly zero); SparseLinearBiasActInto multiplies
//     it against a dense weight matrix touching only the nonzeros.
//
// Thread-safety: all kernels are pure functions of their arguments; distinct
// output tensors may be computed concurrently. KernelStats counters are
// relaxed atomics, updated once per kernel call. SetKernelTier is an atomic
// pointer swap intended for startup/test code, not mid-batch flips.

#ifndef DS_NN_KERNELS_H_
#define DS_NN_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ds/nn/quant.h"
#include "ds/nn/tensor.h"
#include "ds/util/contract.h"

namespace ds::nn {

// ---- Kernel instrumentation ---------------------------------------------------

/// Process-wide kernel counters (relaxed atomics; one update per kernel
/// call, so the instrumentation cost is a few nanoseconds per layer per
/// batch). The serving layer and benchmarks export these as obs gauges.
struct KernelStats {
  std::atomic<uint64_t> dense_calls{0};   // MatMulInto and transposed forms
  std::atomic<uint64_t> fused_calls{0};   // LinearBiasActInto
  std::atomic<uint64_t> sparse_calls{0};  // SparseLinearBiasActInto
  std::atomic<uint64_t> quant_calls{0};   // packed int8/fp16 fused kernels
  std::atomic<uint64_t> flops{0};         // 2 * multiply-accumulates issued
  std::atomic<uint64_t> bytes{0};         // operand + result bytes touched
};

KernelStats& GlobalKernelStats();

// ---- Runtime dispatch ----------------------------------------------------------

/// Kernel tiers, ordered: a higher tier never lacks an instruction a lower
/// one uses. kGeneric and kAvx2 are bit-identical; kAvx2Fma and kAvx512
/// contract to FMA (tolerance-bounded vs the others).
enum class KernelTier : int {
  kGeneric = 0,
  kAvx2 = 1,
  kAvx2Fma = 2,
  kAvx512 = 3,
};

const char* KernelTierName(KernelTier tier);

/// Tiers usable in this process: compiled into the binary AND supported by
/// the running CPU/OS. Always contains kGeneric; sorted ascending.
std::vector<KernelTier> AvailableKernelTiers();

/// The tier the dispatch table currently routes through. First call
/// resolves the default: the best *bit-stable* tier (AVX2 when available),
/// unless DS_KERNEL_TIER requests otherwise ("native" = fastest available
/// including FMA/AVX-512; unknown or unavailable values fall back and warn
/// on stderr once).
KernelTier ActiveKernelTier();

/// Forces the active tier. Returns false (and changes nothing) when the
/// tier is not available in this process. Tests and benches only.
bool SetKernelTier(KernelTier tier);

/// True when the active tier uses SIMD intrinsics (i.e. not kGeneric).
bool KernelsVectorized();

// ---- Dense kernels -------------------------------------------------------------

/// C = A x B for 2D tensors [n,k] x [k,m]; `c` is resized in place to [n,m].
/// Bit-for-bit identical to tensor.h MatMul on generic/AVX2 tiers (same
/// k-order accumulation, same skip of zero A entries).
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c);

/// C = A x B^T: [n,k] x [m,k] -> [n,m] (backward pass: dx = dy W^T). Uses
/// multi-accumulator dot products, so results may differ from the reference
/// by rounding (training-path tolerance).
void MatMulTransposedBInto(const Tensor& a, const Tensor& b, Tensor* c);

/// C += A^T x B: [n,k] x [n,m] -> [k,m], accumulating into `c` (weight
/// gradient: dW += x^T dy, without the temporary + Axpy of the reference).
/// Each element adds a[i,kk] * b[i,j] for i ascending, skipping a == 0, as
/// the reference does, so a second call keeps accumulating element by
/// element; each row of `c` stays in registers across 64 rows of `a`.
void MatMulTransposedAAccumulate(const Tensor& a, const Tensor& b, Tensor* c);

/// Fused y = x*W + b, optionally followed by ReLU; `y` is resized in place
/// to [n, out]. Accumulation order matches Linear::Forward (MatMul then
/// AddBiasRows), so outputs are bit-for-bit identical to the unfused path
/// on generic/AVX2 tiers.
void LinearBiasActInto(const Tensor& x, const Tensor& weight,
                       const Tensor& bias, bool fuse_relu, Tensor* y);

/// Fused y = x*W + b (+ ReLU) with W in packed int8/fp16 form (see
/// ds/nn/quant.h). int8 accumulates x·q in fp32 and applies the
/// per-output-channel scale once in the bias pass: y_j = acc_j * s_j + b_j.
void LinearBiasActPackedInto(const Tensor& x, const PackedLinear& weight,
                             const Tensor& bias, bool fuse_relu, Tensor* y);

// ---- Sparse featurized inputs --------------------------------------------------

/// CSR-style rows of an implicit dense [rows, dim] matrix. The MSCN feature
/// rows (table one-hot + sample bitmap, join one-hot, predicate one-hot +
/// literal) are overwhelmingly zero; storing only the nonzeros makes the
/// first layer of each set-MLP proportional to the nonzero count. Column
/// indices within a row must be strictly increasing — the same order the
/// dense reference walks k — which keeps the sparse product bit-for-bit
/// equal to the dense one. Clear() keeps capacity, so a reused SparseRows
/// stops allocating once it has seen the largest batch.
struct SparseRows {
  size_t dim = 0;                      // dense row width
  std::vector<uint32_t> row_offsets;   // size rows()+1; row_offsets[0] == 0
  std::vector<uint32_t> cols;
  std::vector<float> vals;

  size_t rows() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
  size_t nonzeros() const { return cols.size(); }

  void Clear(size_t new_dim) {
    dim = new_dim;
    row_offsets.clear();
    row_offsets.push_back(0);
    cols.clear();
    vals.clear();
  }

  /// Appends one entry to the row currently being built. Columns must
  /// arrive strictly increasing within a row (the CSR invariant the
  /// bit-for-bit sparse/dense equivalence depends on); the DS_DCHECK
  /// enforces it in Debug/sanitizer builds at zero Release cost.
  void Push(uint32_t col, float val) {
    DS_DCHECK(col < dim, "CSR column %u out of range (dim %zu)", col, dim);
    DS_DCHECK(cols.size() == static_cast<size_t>(row_offsets.back()) ||
                  cols.back() < col,
              "CSR columns must be strictly increasing within a row "
              "(prev %u, got %u)",
              cols.empty() ? 0 : cols.back(), col);
    cols.push_back(col);
    vals.push_back(val);
  }

  /// Finishes the current row (call once per row, including empty padding
  /// rows).
  void EndRow() { row_offsets.push_back(static_cast<uint32_t>(cols.size())); }

  /// Appends a full row copied from `src` (used when packing per-query rows
  /// into a padded per-batch matrix). Bulk-copies the row's column/value
  /// spans — bitmap-featurized rows carry hundreds of entries, so this is
  /// on the batched-serving critical path.
  void AppendRowFrom(const SparseRows& src, size_t row) {
    const uint32_t b = src.row_offsets[row], e = src.row_offsets[row + 1];
    cols.insert(cols.end(), src.cols.begin() + b, src.cols.begin() + e);
    vals.insert(vals.end(), src.vals.begin() + b, src.vals.begin() + e);
    EndRow();
  }

  /// Materializes the dense [rows, dim] matrix (tests / reference path).
  Tensor ToDense() const;
};

/// Fused y = sparse_x * W + b (+ ReLU) with x in CSR form; `y` is resized in
/// place to [x.rows(), out]. Bit-for-bit equal to LinearBiasActInto on
/// ToDense() input because zero entries contribute nothing in either path.
void SparseLinearBiasActInto(const SparseRows& x, const Tensor& weight,
                             const Tensor& bias, bool fuse_relu, Tensor* y);

/// Weight gradient of a sparse-input layer: dw [k,m] += x^T dy with x
/// [n,k] in CSR form and dy [n,m]. Bit-for-bit MatMulTransposedAAccumulate
/// on x.ToDense() on the bit-stable tiers: `xt` (scratch, keeps capacity)
/// receives x's transpose without its zero values in one counting-sort
/// pass, so each element adds exactly the dense kernel's products, rows
/// ascending. No input gradient is computed.
void SparseMatMulTransposedAAccumulate(const SparseRows& x, const Tensor& dy,
                                       SparseRows* xt, Tensor* dw);

/// Sparse x packed int8/fp16 weights — the quantized serving hot path for
/// the set-MLP first layers.
void SparseLinearBiasActPackedInto(const SparseRows& x,
                                   const PackedLinear& weight,
                                   const Tensor& bias, bool fuse_relu,
                                   Tensor* y);

}  // namespace ds::nn

#endif  // DS_NN_KERNELS_H_
