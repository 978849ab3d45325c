#!/bin/bash
# Regenerates every recorded benchmark output with the command EXPERIMENTS.md
# records for it — the bench binary's default (paper-scale) configuration,
# except training_cost, whose C5 run is larger than its defaults — roughly
# an hour on one CPU core. Each output records its configuration; runs are
# deterministic per seed.
set -e
cd "$(dirname "$0")/.."
R=bench_results
for b in table1_joblight estimation_latency template_queries zero_tuple \
         generalization training_cost ablation_bitmaps ablation_samples \
         sketch_footprint plan_quality; do
  args=()
  if [ $b = training_cost ]; then
    args=(titles=15000 samples=128 max_queries=16000)
  fi
  ./build/bench/bench_$b "${args[@]}" > $R/$b.txt
  echo "done: $b"
done
# Kernel microbenchmark + perf gate; also emits $R/nn_kernels.json. The
# gate (vectorized >= reference throughput) also bounds the cost of the
# always-on DS_REQUIRE/DS_ENSURE contracts on the kernel entry points: they
# run once per kernel call, not per element, and stay in the noise — a
# contract regression that slowed the kernels would fail check=1 here.
./build/bench/bench_nn_kernels check=1 > $R/nn_kernels.txt
echo "done: nn_kernels"
