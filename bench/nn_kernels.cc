// Microbenchmark and CI perf-smoke gate for the kernel layer (ds/nn/kernels).
//
// Compares, on serving-typical shapes:
//
//   reference: a local, allocation-free scalar loop (the tensor.h numerics
//              into a pre-sized output) — the compute baseline every
//              dispatch tier is gated against, with no allocator noise
//   fused:     LinearBiasActInto on the active dispatch tier
//   sparse:    SparseLinearBiasActInto on a CSR input of matching density
//   int8/fp16: the packed-weight kernels (LinearBiasActPackedInto /
//              SparseLinearBiasActPackedInto)
//
// With check=1 the binary additionally:
//   * iterates every dispatch tier available in this process (SetKernelTier;
//     CI forces builds/processes into specific tiers with DS_KERNEL_TIER)
//     and verifies fused/sparse/packed outputs against the generic tier —
//     bit-identical for avx2 (and for fp16, whose f16->f32 load is exact),
//     tolerance-bounded for the FMA-contracting fma/avx512 tiers;
//   * fails if the kernel path is slower than the scalar reference on any
//     shape (vectorized tiers only);
//   * fails if the quantized sparse path is not >= 1.5x faster than the
//     fused fp32 dense kernel on the set-MLP first-layer shape (the
//     quantization win the sketch serving path relies on; >= 1.0x on the
//     generic tier, which has no SIMD headroom).
//
// Results are also written machine-readably (op, p50/p95, qps = rows/sec,
// allocations per row) to bench_results/nn_kernels.json; the envelope
// records the active kernel tier and the quant modes measured.
//
// Usage: bench_nn_kernels [check=1] [iters=N] [json=path]

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ds/nn/kernels.h"
#include "ds/nn/quant.h"
#include "ds/nn/tensor.h"
#include "ds/util/logging.h"
#include "ds/util/random.h"

using namespace ds;
using nn::Tensor;

namespace {

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

/// The scalar y = relu(x*W + b) loop in tensor.h accumulation order, into a
/// pre-sized output: zero allocations, zero SIMD — the floor every tier is
/// gated against and the bit-exactness oracle for generic/avx2.
void ReferenceLinear(const Tensor& x, const Tensor& w, const Tensor& b,
                     Tensor* y) {
  const size_t n = x.dim(0), k = x.dim(1), m = w.dim(1);
  y->ResizeInPlace({n, m});
  const float* xp = x.data();
  const float* wp = w.data();
  const float* bp = b.data();
  float* yp = y->data();
  for (size_t i = 0; i < n; ++i) {
    float* yrow = yp + i * m;
    for (size_t j = 0; j < m; ++j) yrow[j] = 0.0f;
    const float* xrow = xp + i * k;
    for (size_t kk = 0; kk < k; ++kk) {
      const float a = xrow[kk];
      if (a == 0.0f) continue;
      const float* wrow = wp + kk * m;
      for (size_t j = 0; j < m; ++j) yrow[j] += a * wrow[j];
    }
    for (size_t j = 0; j < m; ++j) {
      yrow[j] += bp[j];
      if (yrow[j] < 0.0f) yrow[j] = 0.0f;
    }
  }
}

struct Shape {
  const char* name;
  size_t rows, in, out;
  double sparsity;  // zero fraction of the input
};

double MaxRelDiff(const Tensor& a, const Tensor& b) {
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max(1.0, std::fabs(double{a.at(i)}));
    worst = std::max(worst, std::fabs(double{a.at(i)} - b.at(i)) / denom);
  }
  return worst;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const bool check = args.GetInt("check", 0) != 0;
  const size_t iters = static_cast<size_t>(args.GetInt("iters", 2000));

  // rows = flattened batch (batch x set elements); in/out match the MSCN
  // set-MLP (sparse featurized input -> hidden) and hidden->hidden layers.
  const Shape shapes[] = {
      {"setmlp_in_64x1030->64", 64, 1030, 64, 0.99},
      {"hidden_192x64->64", 192, 64, 64, 0.0},
      {"outmlp_64x192->64", 64, 192, 64, 0.0},
  };

  const nn::KernelTier tier = nn::ActiveKernelTier();
  std::printf("kernel tier: %s (available:", nn::KernelTierName(tier));
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    std::printf(" %s", nn::KernelTierName(t));
  }
  std::printf(")\n");

  std::printf("%-24s %11s %11s %11s %11s %11s %8s\n", "shape", "reference",
              "fused", "sparse", "int8", "fp16", "speedup");
  bool ok = true;
  std::vector<bench::OpResult> ops;
  util::Pcg32 rng(3);
  // Saved per shape for the quant speedup gate below.
  std::vector<double> fused_p50, sparse_i8_p50;
  for (const Shape& sh : shapes) {
    Tensor x = RandomTensor({sh.rows, sh.in}, &rng, sh.sparsity);
    Tensor w = RandomTensor({sh.in, sh.out}, &rng);
    Tensor b = RandomTensor({sh.out}, &rng);
    nn::SparseRows xs = ToSparse(x);
    const nn::PackedLinear w_i8 = nn::PackWeights(w, nn::QuantMode::kInt8);
    const nn::PackedLinear w_f16 = nn::PackWeights(w, nn::QuantMode::kFp16);
    Tensor y, ref_y;

    bench::OpResult ref = bench::MeasureOp(
        std::string("reference:") + sh.name, /*warmup=*/50, iters, sh.rows,
        [&] {
          ReferenceLinear(x, w, b, &ref_y);
          benchmark::DoNotOptimize(ref_y.data());
        });
    bench::OpResult fused = bench::MeasureOp(
        std::string("fused:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          nn::LinearBiasActInto(x, w, b, /*fuse_relu=*/true, &y);
          benchmark::DoNotOptimize(y.data());
        });
    bench::OpResult sparse = bench::MeasureOp(
        std::string("sparse:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          nn::SparseLinearBiasActInto(xs, w, b, /*fuse_relu=*/true, &y);
          benchmark::DoNotOptimize(y.data());
        });
    // Quantized path on the kernel the layers dispatch for this shape: the
    // sparse packed kernel for featurized (mostly-zero) inputs, the dense
    // packed kernel everywhere else.
    const bool use_sparse = sh.sparsity > 0.5;
    bench::OpResult int8 = bench::MeasureOp(
        std::string("int8:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          if (use_sparse) {
            nn::SparseLinearBiasActPackedInto(xs, w_i8, b, true, &y);
          } else {
            nn::LinearBiasActPackedInto(x, w_i8, b, true, &y);
          }
          benchmark::DoNotOptimize(y.data());
        });
    bench::OpResult fp16 = bench::MeasureOp(
        std::string("fp16:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          if (use_sparse) {
            nn::SparseLinearBiasActPackedInto(xs, w_f16, b, true, &y);
          } else {
            nn::LinearBiasActPackedInto(x, w_f16, b, true, &y);
          }
          benchmark::DoNotOptimize(y.data());
        });
    ops.push_back(ref);
    ops.push_back(fused);
    ops.push_back(sparse);
    ops.push_back(int8);
    ops.push_back(fp16);
    fused_p50.push_back(fused.p50_us);
    sparse_i8_p50.push_back(use_sparse ? int8.p50_us : 0);

    // Gate on the kernel the layers actually dispatch for this shape.
    const double kernel_us = use_sparse ? sparse.p50_us : fused.p50_us;
    const double speedup = kernel_us > 0 ? ref.p50_us / kernel_us : 0;
    std::printf("%-24s %8.2f us %8.2f us %8.2f us %8.2f us %8.2f us %7.2fx\n",
                sh.name, ref.p50_us, fused.p50_us, sparse.p50_us, int8.p50_us,
                fp16.p50_us, speedup);
    if (nn::KernelsVectorized() && kernel_us > ref.p50_us) {
      std::printf("  ^ FAIL: kernel path slower than the scalar reference "
                  "on %s\n",
                  sh.name);
      ok = false;
    }
    if (ref.allocations_per_query > 0 || fused.allocations_per_query > 0) {
      std::printf("  ^ FAIL: steady-state op allocated (%0.3f/%0.3f "
                  "allocations per row)\n",
                  ref.allocations_per_query, fused.allocations_per_query);
      ok = false;
    }
  }

  if (check) {
    // Parity sweep: every tier this process can run, against the generic
    // tier's outputs. avx2 and all fp16 paths must be bit-identical;
    // fma/avx512 contract to FMA and get a tolerance.
    const nn::KernelTier entry_tier = nn::ActiveKernelTier();
    for (const Shape& sh : shapes) {
      Tensor x = RandomTensor({sh.rows, sh.in}, &rng, sh.sparsity);
      Tensor w = RandomTensor({sh.in, sh.out}, &rng);
      Tensor b = RandomTensor({sh.out}, &rng);
      nn::SparseRows xs = ToSparse(x);
      const nn::PackedLinear w_i8 = nn::PackWeights(w, nn::QuantMode::kInt8);
      const nn::PackedLinear w_f16 = nn::PackWeights(w, nn::QuantMode::kFp16);

      struct Variant {
        const char* name;
        std::function<void(Tensor*)> run;
        bool exact_on_avx2;  // mul+add order preserved -> bit-identical
      };
      const Variant variants[] = {
          {"fused", [&](Tensor* y) {
             nn::LinearBiasActInto(x, w, b, true, y);
           }, true},
          {"sparse", [&](Tensor* y) {
             nn::SparseLinearBiasActInto(xs, w, b, true, y);
           }, true},
          {"fused_i8", [&](Tensor* y) {
             nn::LinearBiasActPackedInto(x, w_i8, b, true, y);
           }, true},
          {"sparse_i8", [&](Tensor* y) {
             nn::SparseLinearBiasActPackedInto(xs, w_i8, b, true, y);
           }, true},
          {"fused_f16", [&](Tensor* y) {
             nn::LinearBiasActPackedInto(x, w_f16, b, true, y);
           }, true},
          {"sparse_f16", [&](Tensor* y) {
             nn::SparseLinearBiasActPackedInto(xs, w_f16, b, true, y);
           }, true},
      };
      for (const Variant& v : variants) {
        DS_CHECK(nn::SetKernelTier(nn::KernelTier::kGeneric));
        Tensor expect;
        v.run(&expect);
        for (nn::KernelTier t : nn::AvailableKernelTiers()) {
          if (t == nn::KernelTier::kGeneric) continue;
          DS_CHECK(nn::SetKernelTier(t));
          Tensor got;
          v.run(&got);
          const bool want_exact =
              v.exact_on_avx2 && t == nn::KernelTier::kAvx2;
          if (want_exact && !BitIdentical(expect, got)) {
            std::printf("check FAIL: %s on tier %s is not bit-identical to "
                        "generic (%s)\n",
                        v.name, nn::KernelTierName(t), sh.name);
            ok = false;
          } else if (double d = MaxRelDiff(expect, got); d > 1e-4) {
            std::printf("check FAIL: %s on tier %s drifted %.2e from "
                        "generic (%s)\n",
                        v.name, nn::KernelTierName(t), d, sh.name);
            ok = false;
          }
        }
      }
    }
    DS_CHECK(nn::SetKernelTier(entry_tier));

    // Quantization speedup gate on the set-MLP first layer (shape 0): the
    // packed int8 sparse path must beat the fused fp32 dense kernel by the
    // margin serving counts on. The generic tier has no SIMD headroom, so
    // it only has to not regress.
    const double need = nn::KernelsVectorized() ? 1.5 : 1.0;
    const double got = sparse_i8_p50[0] > 0 ? fused_p50[0] / sparse_i8_p50[0]
                                            : 0;
    std::printf("quantized setmlp speedup: %.2fx (int8 sparse vs fp32 fused, "
                "need >= %.1fx)\n",
                got, need);
    if (got < need) {
      std::printf("  ^ FAIL: quantized path under the %.1fx gate\n", need);
      ok = false;
    }
  }

  std::printf("vectorized kernel path: %s\n",
              nn::KernelsVectorized()
                  ? nn::KernelTierName(nn::ActiveKernelTier())
                  : "scalar");

  const std::string json_path =
      args.GetString("json", "bench_results/nn_kernels.json");
  if (!json_path.empty()) {
    bench::WriteBenchResultsJson(
        json_path, "nn_kernels", ops,
        {{"kernel_tier", nn::KernelTierName(tier)},
         {"quant", "fp32+int8+fp16"}});
  }

  if (check && !ok) {
    std::printf("check=1: FAILED — kernel parity or perf gate tripped\n");
    return 1;
  }
  if (check) std::printf("check=1: OK\n");
  return 0;
}
