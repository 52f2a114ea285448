#!/usr/bin/env python3
"""Builds and runs the fbufs simulator benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload stream|serve|incast --seed N \\
        --seconds S --trace 0|1 [--results FILE]

Run from the root of a checkout. The first run configures and builds the
simulator and the benchmark runner under .bench_build/perfbench (build output
goes to stderr). The runner measures the workload for S seconds and checks
its outputs; this script writes the full report under .bench_out/ and prints,
as the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list.

Report files, per run, in .bench_out/<workload>-seed<N>-trace<T>/:
    sim.json    deterministic simulated metrics and counts; same-seed runs
                must be byte-identical (compare with cmp)
    host.json   host timings, memory and probe results (nondeterministic)
    spans.json  traced runs only: Chrome trace-event spans (Perfetto)
--results FILE also appends the whole record as one JSON line, the input
format of perfbench/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; False when either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="append the run's record to this JSONL file")
    args = ap.parse_args()

    specs = metric_specs(args.trace)
    if not build():
        return 1
    run_dir = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(run_dir, "spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return 1
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = {}
    if proc.returncode != 0 or not report.get("correct"):
        log(f"runner exited {proc.returncode}: "
            + (report.get("failure") or proc.stdout.strip() or "no report"))
        print(json.dumps({"correct": False,
                          "attempted": max(1, report.get("attempted", 1)),
                          "failed": report.get("failed", 0), "metrics": {}}))
        return 1

    sim, host = report["sim"], report["host"]
    with open(os.path.join(run_dir, "sim.json"), "w") as f:
        json.dump(sim, f, indent=1)
        f.write("\n")
    with open(os.path.join(run_dir, "host.json"), "w") as f:
        json.dump(host, f, indent=1)
        f.write("\n")

    metrics = {}
    for m in specs:
        value = sim.get(m["name"], host.get(m["name"]))
        if value is None:
            log(f"report lacks metric {m['name']}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": True, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    if args.results:
        with open(args.results, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "sim": sim, "host": host,
                                "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
