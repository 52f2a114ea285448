#!/usr/bin/env python3
"""Summarizes or compares result sets written by run.py --results.

    python3 perfbench/compare.py RUNS.jsonl
        One row per workload x end-to-end metric: median, quartiles, and the
        run-to-run spread (Q3 - Q1) / median against the metric's bound.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
        One row per workload x end-to-end metric: median and quartiles of each
        side and one verdict:
          worse      NEW's median is worse than BASE's by more than the bound;
          better     NEW wins at least 9/10 of the same-seed pairs (ties count
                     for neither) and the medians differ by more than BASE's
                     own spread (Q3 - Q1);
          unresolved BASE's spread is wider than the bound and not every NEW
                     run beats every BASE run;
          unchanged  otherwise.
        It also counts the same-seed pairs whose simulated sections differ.

Only untraced records (trace 0) are read; bounds come from BENCHMARK.json.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def value(rec, name):
    return rec["sim"].get(name, rec["host"].get(name))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs, metrics):
    print(f"{'workload':8} {'metric':20} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, recs in sorted(runs.items()):
        for m in metrics:
            values = [value(r, m["name"]) for r in recs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:8} {m['name']:20} {len(values):3} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.2%} {m['bound']:6.0%}{flag}")


def verdict(m, base, new, pairs):
    lower = m["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if worse_by > m["bound"]:
        return "worse"

    def beats(a, b):
        return a < b if lower else a > b

    wins = sum(beats(n, b) for b, n in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > bq3 - bq1 and beats(nmed, bmed)):
        return "better"
    all_beat = all(beats(n, b) for n in new for b in base)
    if (bq3 - bq1) / bmed > m["bound"] and not all_beat:
        return "unresolved"
    return "unchanged"


def compare(base_runs, new_runs, metrics):
    print(f"{'workload':8} {'metric':20} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36}  verdict")
    for workload in sorted(set(base_runs) & set(new_runs)):
        base_recs, new_recs = base_runs[workload], new_runs[workload]
        by_seed = {r["seed"]: r for r in base_recs}
        pair_recs = [(by_seed[r["seed"]], r) for r in new_recs
                     if r["seed"] in by_seed]
        for m in metrics:
            base = [value(r, m["name"]) for r in base_recs]
            new = [value(r, m["name"]) for r in new_recs]
            pairs = [(value(b, m["name"]), value(n, m["name"]))
                     for b, n in pair_recs]
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            print(f"{workload:8} {m['name']:20} "
                  f"{bmed:12.6g} [{bq1:10.6g}, {bq3:10.6g}] "
                  f"{nmed:12.6g} [{nq1:10.6g}, {nq3:10.6g}]  "
                  f"{verdict(m, base, new, pairs)}")
        differ = sum(b["sim"] != n["sim"] for b, n in pair_recs)
        print(f"{workload:8} simulated section differs on {differ} of "
              f"{len(pair_recs)} same-seed pairs")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if len(sys.argv) == 2:
        summarize(load(sys.argv[1]), metrics)
    else:
        compare(load(sys.argv[1]), load(sys.argv[2]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
