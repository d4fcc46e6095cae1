#!/usr/bin/env python3
"""End-to-end benchmark of the warped-gates simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --self-test             # the helpers' tests

Builds perfbench/ (a CMake package compiling ../src) under .bench_build/,
runs one workload, and prints every metric by name and unit. The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
metrics (--trace 1). The full record, with the host fingerprint, is kept
in .bench_build/perfbench-out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite_sweep", "traced_checkpoint", "served_jobs"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure (once) and build; build output goes to stderr."""
    build_dir = os.path.join(build_root(), "perfbench")
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return build_dir


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_workload(binary, spec, workload, seed, seconds, trace):
    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-out", os.path.join(out_dir, f"spans-{stem}.jsonl")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no record")
    record["wall_s"] = time.monotonic() - t0

    # Pick the metrics BENCHMARK.json names, with the units it names.
    source = record["layers"] if trace else record["e2e"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None:
            fail(f"{workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got
    result = {"correct": record["correct"],
              "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": metrics}
    record["result"] = result
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return record


def describe(record):
    host = record["host"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} wall={record['wall_s']:.1f}s")
    print(f"# host: nproc={host['nproc']} pool={host['pool_threads']} "
          f"build={host['build_type']} compiler={host['compiler']} "
          f"cpu={host['cpu']}")
    if not host["optimized"]:
        warning = ("WARNING: perfbench was built WITHOUT optimisation; "
                   "its timings are not comparable to anything")
        print(f"# {warning}")
        print(warning, file=sys.stderr)
    attempted = record["attempted"]
    rate = record["failed"] / attempted if attempted else 1.0
    print(f"# correct={record['correct']} attempted={attempted} "
          f"failed={record['failed']} error_rate={rate:g}")
    for f in record["failures"]:
        print(f"# FAILED {f}")
    for section in ("e2e", "layers"):
        for name, m in sorted(record[section].items()):
            print(f"{section} {name} = {m['value']:.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the helpers' tests")
    args = p.parse_args()

    build_dir = build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode)

    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = os.path.join(build_dir, "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(binary, spec, w, args.seed, seconds, args.trace)
               for w in workloads]
    for record in records:
        describe(record)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
