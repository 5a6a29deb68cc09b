#!/usr/bin/env python3
"""Build and run the 2SMaRT end-to-end benchmark (bench/e2e).

One run (the benchmark contract; the last stdout line is the result):

  python3 bench/e2e/run.py --workload fleet-steady --seed 1 --seconds 8 \
      --trace 0

A results set (every workload, or the --workload list, --repeat times at
each seed; --trace 0,1 adds a traced run after each untraced one; compare
two sets with agree.py):

  python3 bench/e2e/run.py --seed 42 --repeat 5 --out build-e2e/a.json

--ledger FILE appends one row of the set's medians to a ledger
(bench/e2e/ledger.jsonl is the committed one). The driver is built from
source into --build (default: $CARGO_TARGET_DIR, else .bench_build) under
the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ["fleet-steady", "fleet-churn", "fleet-int8", "realtime",
             "profile-train"]
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"{ROOT} holds no smart2 sources to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "smart2_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "smart2_e2e")


def declared_metrics():
    """Metric names and units BENCHMARK.json declares, per mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def run_driver(driver, results_dir, workload, seed, seconds, trace):
    """One driver process; returns its results dict (None if it crashed)."""
    tag = f"{workload}-{seed}" + ("-trace" if trace else "")
    out = os.path.join(results_dir, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    if trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(results_dir, tag + ".trace.jsonl")]
    # The driver pins its own configuration; no SMART2_* knob but the
    # SIMD override (recorded in the results as "isa") may reach it.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SMART2_") or k == "SMART2_SIMD"}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        log(f"run.py: {workload} seed {seed} timed out")
        return None
    if not os.path.exists(out):
        log(f"run.py: {workload} seed {seed} exited {proc.returncode} "
            "without results")
        return None
    with open(out) as f:
        result = json.load(f)
    result["exit_code"] = proc.returncode
    result["wall_s"] = time.monotonic() - start
    result["git_sha"] = git_sha()
    result["smart2_simd"] = env.get("SMART2_SIMD", "")
    return result


def result_line(result):
    declared = declared_metrics()[result["trace"]]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    correct = (result["correct"] and result["exit_code"] == 0
               and set(metrics) == set(declared)
               and all(declared[n] == m["unit"] for n, m in metrics.items()))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def ledger_row(results_set):
    """Medians (with sample counts) of every metric, per workload."""
    runs = results_set["runs"]
    row = {"sha": results_set["git_sha"], "isa": runs[0]["isa"],
           "nproc": runs[0]["nproc"],
           "seeds": sorted({r["seed"] for r in runs}),
           "seconds": runs[0]["seconds"], "workloads": {}}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        values = {}
        for r in mine:  # untraced runs carry end-to-end, traced per-layer
            for name, m in r["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        row["workloads"][workload] = {
            "lanes": mine[0]["lanes"],
            "runs": len(mine),
            "metrics": {name: {"median": statistics.median(v), "n": len(v),
                               "unit": unit}
                        for name, (unit, v) in values.items()},
            "digests": sorted({r["info"]["verdict_digest"] for r in mine})}
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload, or a comma list "
                    "(default: all, as a results set)")
    ap.add_argument("--seed", default="42",
                    help="seed, comma list or range such as 1-10")
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", choices=["0", "1", "0,1"], default="0",
                    help="1: per-layer metrics; 0,1: both, run by run")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--build", default=os.environ.get("CARGO_TARGET_DIR",
                                                      ".bench_build"))
    ap.add_argument("--out", help="results-set JSON (set mode)")
    ap.add_argument("--ledger", help="append the set's medians here")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, args.build)
    try:
        driver = build(build_dir)
        declared_metrics()
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as err:
        log(f"run.py: {err}")
        return 2
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    traces = [t == "1" for t in args.trace.split(",")]
    seeds = parse_seeds(args.seed)
    workloads = args.workload.split(",") if args.workload else WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            log(f"run.py: unknown workload {w}; one of {WORKLOADS}")
            return 2

    single = (len(workloads) == 1 and len(seeds) == 1 and len(traces) == 1
              and args.repeat == 1)
    if single and not args.out:
        result = run_driver(driver, results_dir, workloads[0], seeds[0],
                            args.seconds, traces[0])
        if result is None:
            return 1
        line = result_line(result)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    runs = []
    for _ in range(args.repeat):
        for seed in seeds:
            for w in workloads:
                for trace in traces:
                    result = run_driver(driver, results_dir, w, seed,
                                        args.seconds, trace)
                    if result is None:
                        return 1
                    runs.append(result)
                    shown = ", ".join(f"{k}={v['value']:.6g}"
                                      for k, v in result["metrics"].items())
                    log(f"{w} seed {seed} trace {int(trace)} "
                        f"({result['wall_s']:.1f} s, "
                        f"correct={result['correct']}): {shown}")
    results_set = {"benchmark": "smart2-e2e", "git_sha": git_sha(),
                   "runs": runs}
    out = args.out or os.path.join(results_dir, "set.json")
    with open(os.path.join(ROOT, out), "w") as f:
        json.dump(results_set, f, indent=1)
    log(f"run.py: {len(runs)} runs -> {out}")
    if args.ledger:
        with open(os.path.join(ROOT, args.ledger), "a") as f:
            f.write(json.dumps(ledger_row(results_set)) + "\n")
    ok = all(result_line(r)["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
