// Internal kernel dispatch table — the seam between the public, validating
// kernel wrappers (kernels.cc) and the per-tier implementations
// (kernels_generic.cc / kernels_avx2.cc / kernels_avx2_fma.cc /
// kernels_avx512.cc).
//
// Tier translation units are compiled with per-file target flags
// (-mavx2, -mfma, -mavx512*; see src/CMakeLists.txt), so they must not
// export anything the baseline binary could accidentally link against:
// a vague-linkage (inline/template) function compiled in an AVX-512 TU can
// be the copy the linker keeps, and then a pre-AVX machine faults on code
// the dispatcher never chose. Hence the rules for this header and the
// tier TUs:
//
//   * this header declares only the raw-pointer table and the per-tier
//     getters — no inline functions, no templates, no Tensor/Status types;
//   * everything inside a tier TU lives in an anonymous namespace
//     (internal linkage) except its single GetXxxOps() definition.
//
// All argument validation, output resizing, stats counting, and no-alloc
// guarding happen in the public wrappers; tier code sees pre-validated
// pointers and extents only.

#ifndef DS_NN_KERNELS_DISPATCH_H_
#define DS_NN_KERNELS_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace ds::nn::detail {

/// One tier's kernel entry points. Matrix arguments are dense row-major;
/// sparse inputs arrive as CSR triples (offsets of size n+1, then parallel
/// cols/vals arrays). Quantized weights are [k, m] row-major int8 codes
/// with per-output-channel scales, or [k, m] IEEE binary16 halves.
struct KernelOps {
  // c[n,m] = a[n,k] * b[k,m]
  void (*matmul)(const float* a, const float* b, float* c, size_t n,
                 size_t k, size_t m);
  // c[n,m] = a[n,k] * b[m,k]^T
  void (*matmul_tb)(const float* a, const float* b, float* c, size_t n,
                    size_t k, size_t m);
  // c[k,m] += a[n,k]^T * b[n,m]
  void (*matmul_ta_acc)(const float* a, const float* b, float* c, size_t n,
                        size_t k, size_t m);
  // c[k,m] += x^T * b[n,m], x [n,k] given as the CSR rows of x^T (offsets
  // of size k+1; each row's row indices ascending, no zero values)
  void (*sparse_matmul_ta_acc)(const uint32_t* offs, const uint32_t* rows,
                               const float* vals, size_t k, const float* b,
                               float* c, size_t m);
  // y[n,m] = x[n,k] * w[k,m] + bias (+ ReLU)
  void (*linear)(const float* x, const float* w, const float* bias,
                 bool fuse_relu, float* y, size_t n, size_t k, size_t m);
  // y[n,m] = csr(x) * w[k,m] + bias (+ ReLU)
  void (*sparse_linear)(const uint32_t* offs, const uint32_t* cols,
                        const float* vals, size_t n, const float* w,
                        const float* bias, bool fuse_relu, float* y,
                        size_t m);
  // y[n,m] = (x[n,k] * q[k,m]) .* scales + bias (+ ReLU), fp32 accumulate
  void (*linear_i8)(const float* x, const int8_t* q, const float* scales,
                    const float* bias, bool fuse_relu, float* y, size_t n,
                    size_t k, size_t m);
  void (*sparse_linear_i8)(const uint32_t* offs, const uint32_t* cols,
                           const float* vals, size_t n, const int8_t* q,
                           const float* scales, const float* bias,
                           bool fuse_relu, float* y, size_t m);
  // y[n,m] = x[n,k] * f32(h[k,m]) + bias (+ ReLU)
  void (*linear_f16)(const float* x, const uint16_t* h, const float* bias,
                     bool fuse_relu, float* y, size_t n, size_t k, size_t m);
  void (*sparse_linear_f16)(const uint32_t* offs, const uint32_t* cols,
                            const float* vals, size_t n, const uint16_t* h,
                            const float* bias, bool fuse_relu, float* y,
                            size_t m);
};

/// Per-tier tables. A getter returns nullptr when its tier was compiled
/// without the required target flags (the TU falls back to a stub), so the
/// dispatcher treats "not compiled in" and "CPU lacks it" identically.
/// GetGenericOps() never returns nullptr.
const KernelOps* GetGenericOps();
const KernelOps* GetAvx2Ops();
const KernelOps* GetAvx2FmaOps();
const KernelOps* GetAvx512Ops();

}  // namespace ds::nn::detail

#endif  // DS_NN_KERNELS_DISPATCH_H_
