#!/usr/bin/env python3
"""Repository benchmark: builds rdd_bench from this checkout, runs one
workload and prints its metrics, the last line as one JSON object.

    python3 perfbench/run.py --workload cora_pipeline --seed 42 \\
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing and metrics off; --trace 1 reports the per-layer metrics from an
extra traced pass. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout. Exits non-zero when an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from rollup import rollup_file  # noqa: E402

ROOT = os.path.dirname(HERE)
THREADS = "4"
RUN_TIMEOUT_S = 170

# Library spans whose self time is a per-layer metric, "<span>.self_ms".
SELF_TIME_SPANS = [
    "rdd/node_reliability", "rdd/edge_reliability", "rdd/edge_reg_loss",
    "rdd/node_distill_loss", "rdd/teacher_views", "rdd/ensemble_update",
    "train/epoch", "train/backward_step", "train/validate", "train/mb_batch",
    "train/mb_validate", "stream/finetune_epoch",
]
TRAINING_SPANS = ["bench/train_rdd", "bench/train_rdd_minibatch",
                  "bench/incremental_rdd", "bench/distill"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) the root project with perfbench/ added to it and
    builds rdd_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("project sources not found at " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "project_include.cmake")])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", build_dir, "--target", "rdd_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; full log in " + log_path)
    return os.path.join(build_dir, "rdd_bench")


def span_metrics(spans, values):
    """Per-layer metrics derived from the trace rollup."""
    def total_ms(name):
        return spans.get(name, {}).get("total_us", 0.0) / 1e3

    def mean_ms(name):
        count = spans.get(name, {}).get("count", 0)
        return total_ms(name) / count if count else 0.0

    m = {
        "data.generate_s": total_ms("bench/generate") / 1e3,
        "data.context_build_s": total_ms("bench/context_build") / 1e3,
        "data.checkpoint_save_ms": mean_ms("bench/checkpoint_save"),
        "data.checkpoint_load_ms": mean_ms("bench/checkpoint_load"),
        "data.dataset_save_ms": mean_ms("bench/dataset_save"),
        "core.distill_s": mean_ms("bench/distill") / 1e3,
        "stream.apply_ms": mean_ms("stream/apply_delta"),
        "serve.hot_swap_ms": mean_ms("serve/hot_swap"),
        "serve.swap_visible_ms": mean_ms("bench/swap_visible"),
    }
    for name in SELF_TIME_SPANS:
        m[name.replace("/", ".") + ".self_ms"] = (
            spans.get(name, {}).get("self_us", 0.0) / 1e3)
    queries = values["raw.serve_queries"]
    m["serve.predict_us_per_query"] = (
        1e3 * total_ms("serve/predict") / queries if queries else 0.0)
    rtt = values["serve.rtt_mean_us"]
    m["serve.wire_us"] = (
        max(0.0, rtt - 1e3 * mean_ms("serve/predict")) if rtt else 0.0)
    train_s = sum(total_ms(name) for name in TRAINING_SPANS) / 1e3
    m["simd.gflop_per_train_s"] = (
        values["raw.kernel_gflop"] / train_s if train_s else 0.0)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the correctness tests")
    parser.add_argument("--binary", help="use this rdd_bench, do not build")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at " + spec_path)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if (os.cpu_count() or 1) < int(THREADS):
        print("perfbench: warning: %d CPUs for %s threads; timings will not "
              "compare with a 4-core machine" % (os.cpu_count(), THREADS),
              file=sys.stderr)
    if args.binary:
        binary = os.path.abspath(args.binary)
    else:
        build_dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        binary = build(build_dir)

    run_dir = os.path.join(os.path.dirname(binary), "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Only the thread count reaches the program; every other RDD_* knob
    # (tracing, metrics, kernel backend, pool) stays at its default.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDD_")}
    env["RDD_NUM_THREADS"] = THREADS
    # Relative paths keep the daemon's socket path short.
    out = os.path.relpath(run_dir, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout.decode(errors="replace"))
        if proc.returncode != 0:
            fail("rdd_bench exited with code %d" % proc.returncode)
        with open(os.path.join(run_dir, "result.json")) as f:
            result = json.load(f)
        values = result["values"]
        if args.trace:
            values.update(span_metrics(
                rollup_file(os.path.join(run_dir, "trace.json")), values))
    except subprocess.TimeoutExpired:
        fail("rdd_bench did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = all(result["checks"].values()) and bool(result["checks"])
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print("perfbench: metric %s missing or not finite"
                  % metric["name"], file=sys.stderr)
            correct = False
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("%-34s %14.6g %s" % (metric["name"], value, metric["unit"]))
    failed_checks = [k for k, ok in result["checks"].items() if not ok]
    if failed_checks:
        print("perfbench: failed checks: " + ", ".join(failed_checks),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
