#!/bin/bash
# Regenerates every recorded benchmark output using the bench binaries'
# default (paper-scale) configurations — roughly an hour on one CPU core.
# Each output records its configuration; runs are deterministic per seed.
set -e
cd "$(dirname "$0")/.."
R=bench_results
for b in table1_joblight estimation_latency template_queries zero_tuple \
         generalization training_cost ablation_bitmaps ablation_samples \
         sketch_footprint plan_quality; do
  ./build/bench/bench_$b > $R/$b.txt
  echo "done: $b"
done
# Kernel microbenchmark + perf gate; also emits $R/nn_kernels.json. The
# gate (vectorized >= reference throughput) also bounds the cost of the
# always-on DS_REQUIRE/DS_ENSURE contracts on the kernel entry points: they
# run once per kernel call, not per element, and stay in the noise — a
# contract regression that slowed the kernels would fail check=1 here.
./build/bench/bench_nn_kernels check=1 > $R/nn_kernels.txt
echo "done: nn_kernels"
