#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Builds the driver (and the deepsketch library it links) from source into
.bench_build/, runs it, checks that it reported exactly the metrics
BENCHMARK.json names for the mode, each with its unit, and passes its
result object through as the last line of stdout. --smoke runs every
workload in both modes at tiny sizes and fails unless all of that holds:
it is the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ds_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write("\n".join(proc.stdout.splitlines()[-60:]) + "\n")
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise RuntimeError("no deepsketch sources here (missing %s)" %
                               required)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + BENCH_DIR) not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not os.path.isfile(cache):
        run_build_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "ds_perfbench",
                    "-j", jobs])


def source_digest():
    """Content hash of what the driver builds, for the result stamp (the
    checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    tops = ["src", os.path.join("perfbench", "src")]
    files = ["CMakeLists.txt", os.path.join("perfbench", "CMakeLists.txt")]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in files:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run_driver(workload, seed, seconds, trace, smoke, digest):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--source-digest", digest]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def check_result(line, expected):
    """Problems with one result line, or [] when it has the contract's shape
    and exactly the expected metrics and units."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: " + line[:200]]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r" %
                            (name, metrics[name].get("unit"), unit))
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in metrics:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("output check failed: correct=%s failed=%s" %
                        (result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    return problems


def smoke():
    spec, _ = expected_metrics(False)
    digest = source_digest()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            _, expected = expected_metrics(trace)
            code, lines = run_driver(workload, 1, 1, trace, True, digest)
            problems = [] if lines else ["no output"]
            if lines:
                problems = check_result(lines[-1], expected)
            if code != 0:
                problems.append("exit code %d" % code)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-15s trace=%d %d metrics: %s" %
                  (workload, trace, len(expected), status), flush=True)
            failures += bool(problems)
    print("smoke: %s" % ("passed" if failures == 0 else
                         "%d of %d runs failed" %
                         (failures, 2 * len(spec["workloads"]))))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    try:
        build()
        if args.smoke:
            return smoke()
        _, expected = expected_metrics(args.trace)
        code, lines = run_driver(args.workload, args.seed, args.seconds,
                                 bool(args.trace), False, source_digest())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2
    if not lines:
        log("the driver printed nothing (exit code %d)" % code)
        return 2 if code == 0 else code
    problems = check_result(lines[-1], expected)
    for p in problems:
        log(p)
    if any("output check failed" not in p for p in problems):
        return 1  # a malformed result is not printed
    print("\n".join(lines), flush=True)
    return code if code != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
