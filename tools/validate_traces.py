#!/usr/bin/env python3
"""Validates the simulator's JSON artifacts from the files alone.

Files are told apart by name. BENCH_<stem>.json and CAMPAIGN_<stem>.json are
reports; anything else is a Chrome trace_event export (TRACE_*.json).

Reports. A BENCH file opens with "bench" equal to its stem, then "rows": a
list of flat objects whose values are numbers, strings or null. A CAMPAIGN
file opens with "campaign" equal to its stem; its phases are contiguous
(each end_ns is the next start_ns), and "passed": true requires every audit
to have passed. In either, every top-level section is re-checked:
time_attribution (directly, or member by member when it has no clock_ns)
must conserve time exactly (attributed_ns == clock_ns == the sum of by_cpu,
by_layer and by_path each sum to attributed_ns, and so does by_flow when
present); every latency_decomposition entry holds the five slices in order,
each with p50 <= p99 <= p999; every metrics histogram has
min <= p50 <= p99 <= max with its buckets summing to count, and every gauge
min <= value <= max.

Traces. Checks, per file: the document parses, traceEvents is non-empty, every
begin span has a matching end (per pid/tid the B/E stream must be properly
bracketed), at least one instant (phase marker) is present, counter ('C')
events carry numeric args with non-decreasing timestamps per track, and
every lane_conservation instant balances to the nanosecond
(busy + idle == elapsed). Transfer-ring counter tracks get their own
checks: every '<ring>/sq_depth' track must come with a matching
'<ring>/doorbells' track, depths must be non-negative, and doorbell counts
must be non-decreasing; traces from ablation_rings must contain at least
one ring track. Flow events (fbuf journeys) are checked for binding: every
flow chain opens with exactly one 's' per (pid, name, id), every 't'/'f'
follows a matching 's', timestamps never run backwards along a chain, each
chain is terminated by exactly one 'f' (carrying Chrome's bp:"e"), and
nothing follows the 'f'. Traces from incast and server must additionally
carry at least one lifecycle flow and at least one histogram counter track
(count/p50/p99 args, from MetricsRegistry export).

Exits non-zero on the first violation. The validate_golden_reports ctest
runs it over every committed golden report; CI runs it over the TRACE,
BENCH and CAMPAIGN files the smoke benches write, and over the traces of a
full-size campaigns run, whose server_churn ring wraps.
"""
import json
import os
import sys


def check_conservation(path, e):
    args = e.get("args", {})
    for k in ("busy", "idle", "elapsed"):
        if not isinstance(args.get(k), int):
            raise SystemExit(f"{path}: lane_conservation missing int arg '{k}': {e}")
    if args["busy"] + args["idle"] != args["elapsed"]:
        raise SystemExit(
            f"{path}: lane conservation violated on pid={e.get('pid')} "
            f"tid={e.get('tid')}: busy {args['busy']} + idle {args['idle']} "
            f"!= elapsed {args['elapsed']}")
    if args["busy"] < 0 or args["idle"] < 0:
        raise SystemExit(f"{path}: negative lane time: {args}")


def check_ring_tracks(path, counter_values):
    """Every ring exports sq_depth (gauge, >= 0) and doorbells (monotone)."""
    rings = 0
    for name, values in counter_values.items():
        if not name.endswith("/sq_depth"):
            continue
        rings += 1
        ring = name[: -len("/sq_depth")]
        if any(v < 0 for v in values):
            raise SystemExit(f"{path}: negative SQ depth on track '{name}'")
        bells = counter_values.get(ring + "/doorbells")
        if bells is None:
            raise SystemExit(
                f"{path}: ring '{ring}' has sq_depth but no doorbells track")
        if any(b < a for a, b in zip(bells, bells[1:])):
            raise SystemExit(
                f"{path}: doorbell count decreases on track '{ring}/doorbells'")
    return rings


def check_flow_event(path, e, flows):
    """One step of a flow chain: 's' opens, 't' continues, 'f' closes."""
    ph = e["ph"]
    if "id" not in e:
        raise SystemExit(f"{path}: flow event '{e['name']}' ({ph}) has no id")
    key = (e.get("pid"), e["name"], e["id"])
    ts = e.get("ts", 0)
    chain = flows.get(key)
    if ph == "s":
        if chain is not None:
            raise SystemExit(
                f"{path}: duplicate flow start for {key} (ids must be "
                f"unique per journey)")
        flows[key] = {"ts": ts, "closed": False}
        return
    if chain is None:
        raise SystemExit(f"{path}: flow '{ph}' without a matching 's': {key}")
    if chain["closed"]:
        raise SystemExit(f"{path}: flow event after 'f' on chain {key}")
    if ts < chain["ts"]:
        raise SystemExit(
            f"{path}: flow chain {key} runs backwards "
            f"({chain['ts']} -> {ts})")
    chain["ts"] = ts
    if ph == "f":
        if e.get("bp") != "e":
            raise SystemExit(
                f"{path}: flow end on chain {key} lacks bp:\"e\" binding")
        chain["closed"] = True


LATENCY_SLICES = ["queue_wait", "wire", "dispatch", "retransmit", "pin_hold"]


def check_attribution(path, where, ta):
    attributed = ta["attributed_ns"]
    if not attributed == ta["clock_ns"] == sum(ta["by_cpu"]):
        raise SystemExit(
            f"{path}: {where}: attributed_ns {attributed}, clock_ns "
            f"{ta['clock_ns']} and sum(by_cpu) {sum(ta['by_cpu'])} differ")
    splits = ["by_layer", "by_path"] + (["by_flow"] if "by_flow" in ta else [])
    for split in splits:
        total = sum(ta[split].values())
        if total != attributed:
            raise SystemExit(
                f"{path}: {where}: sum({split}) {total} != attributed_ns "
                f"{attributed}")


def check_sections(path, doc):
    """Re-checks the report sections that carry their own invariants."""
    attribution = doc.get("time_attribution")
    if attribution is not None:
        if "clock_ns" in attribution:
            check_attribution(path, "time_attribution", attribution)
        else:
            for host, ta in attribution.items():
                check_attribution(path, f"time_attribution.{host}", ta)
    for name, entry in doc.get("latency_decomposition", {}).items():
        if list(entry) != LATENCY_SLICES:
            raise SystemExit(
                f"{path}: latency_decomposition.{name} slices {list(entry)} "
                f"are not {LATENCY_SLICES}")
        for slice_name, q in entry.items():
            if not q["p50"] <= q["p99"] <= q["p999"]:
                raise SystemExit(
                    f"{path}: latency_decomposition.{name}.{slice_name}: "
                    f"p50/p99/p999 out of order: {q}")
    metrics = doc.get("metrics", {})
    for name, h in metrics.get("histograms", {}).items():
        if not h["min"] <= h["p50"] <= h["p99"] <= h["max"]:
            raise SystemExit(
                f"{path}: histogram '{name}': min/p50/p99/max out of order: {h}")
        if sum(h["buckets"].values()) != h["count"]:
            raise SystemExit(
                f"{path}: histogram '{name}': buckets sum to "
                f"{sum(h['buckets'].values())}, count is {h['count']}")
    for name, g in metrics.get("gauges", {}).items():
        if not g["min"] <= g["value"] <= g["max"]:
            raise SystemExit(
                f"{path}: gauge '{name}': value outside [min, max]: {g}")


def check_rows(path, rows):
    if not isinstance(rows, list):
        raise SystemExit(f"{path}: rows is not a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SystemExit(f"{path}: row {i} is not an object")
        for k, v in row.items():
            if isinstance(v, bool) or not (
                    v is None or isinstance(v, (int, float, str))):
                raise SystemExit(
                    f"{path}: row {i} field '{k}' is not a number, string "
                    f"or null: {v!r}")


def validate_bench(path, doc, stem):
    keys = list(doc)
    if keys[:2] != ["bench", "rows"] or doc["bench"] != stem:
        raise SystemExit(f"{path}: expected \"bench\": {stem!r} then \"rows\", "
                         f"got {keys[:2]} with bench {doc.get('bench')!r}")
    check_rows(path, doc["rows"])
    check_sections(path, doc)
    print(f"{path}: {len(doc['rows'])} rows, sections: "
          f"{', '.join(keys[2:]) or 'none'}")


def validate_campaign(path, doc, stem):
    if next(iter(doc), None) != "campaign" or doc["campaign"] != stem:
        raise SystemExit(f"{path}: expected \"campaign\": {stem!r} first")
    check_rows(path, doc.get("rows", []))
    check_sections(path, doc)
    phases = doc["phases"]
    for a, b in zip(phases, phases[1:]):
        if a["end_ns"] != b["start_ns"]:
            raise SystemExit(
                f"{path}: phase '{a['label']}' ends at {a['end_ns']}, "
                f"phase '{b['label']}' starts at {b['start_ns']}")
    if doc["passed"] and not all(a["passed"] for a in doc["audits"]):
        raise SystemExit(f"{path}: passed with a failed audit")
    print(f"{path}: {len(phases)} phases, {len(doc['audits'])} audits")


def validate_trace(path, doc):
    events = doc["traceEvents"]
    if not events:
        raise SystemExit(f"{path}: empty traceEvents")
    stacks = {}
    counter_ts = {}
    counter_values = {}
    flows = {}
    hist_tracks = set()
    begins = ends = instants = counters = lanes_checked = 0
    for e in events:
        ph = e["ph"]
        lane = (e.get("pid"), e.get("tid"))
        if ph == "B":
            begins += 1
            stacks.setdefault(lane, []).append(e["name"])
        elif ph == "E":
            ends += 1
            stack = stacks.get(lane)
            if not stack:
                raise SystemExit(f"{path}: E without B on lane {lane}: {e['name']}")
            stack.pop()
        elif ph == "i":
            instants += 1
            if e["name"] == "lane_conservation":
                check_conservation(path, e)
                lanes_checked += 1
        elif ph == "C":
            counters += 1
            args = e.get("args", {})
            if not args:
                raise SystemExit(f"{path}: counter '{e['name']}' with no args")
            for k, v in args.items():
                if not isinstance(v, (int, float)):
                    raise SystemExit(
                        f"{path}: counter '{e['name']}' arg '{k}' not numeric: {v!r}")
            track = (lane, e["name"])
            ts = e.get("ts", 0)
            if track in counter_ts and ts < counter_ts[track]:
                raise SystemExit(
                    f"{path}: counter '{e['name']}' timestamps go backwards "
                    f"({counter_ts[track]} -> {ts})")
            counter_ts[track] = ts
            counter_values.setdefault(e["name"], []).extend(args.values())
            if {"count", "p50", "p99"} <= set(args):
                hist_tracks.add(e["name"])
        elif ph in ("s", "t", "f"):
            check_flow_event(path, e, flows)
    if begins != ends:
        raise SystemExit(f"{path}: unbalanced spans ({begins} B vs {ends} E)")
    for lane, stack in stacks.items():
        if stack:
            raise SystemExit(f"{path}: {len(stack)} unclosed span(s) on lane {lane}")
    if instants == 0:
        raise SystemExit(f"{path}: no instants (phase markers missing)")
    for key, chain in flows.items():
        if not chain["closed"]:
            raise SystemExit(f"{path}: flow chain {key} never reaches 'f'")
    rings = check_ring_tracks(path, counter_values)
    if "ablation_rings" in path and rings == 0:
        raise SystemExit(f"{path}: ablation_rings trace has no ring counter tracks")
    # Exact basenames: campaign traces (e.g. TRACE_server_churn.json) carry
    # host spans only, not metrics/lifecycle processes.
    base = path.rsplit("/", 1)[-1]
    if base in ("TRACE_incast.json", "TRACE_server.json"):
        # These benches attach a MetricsRegistry and a LifecycleTracker; an
        # export without histogram tracks or journeys means a hook came loose.
        if not hist_tracks:
            raise SystemExit(f"{path}: no histogram counter tracks "
                             f"(count/p50/p99) in a metrics-armed trace")
        if not flows:
            raise SystemExit(f"{path}: no fbuf journey flow chains "
                             f"in a lifecycle-armed trace")
    ringinfo = f", {rings} ring track(s)" if rings else ""
    extra = f", {lanes_checked} lane(s) conserved" if lanes_checked else ""
    flowinfo = f", {len(flows)} flow chain(s)" if flows else ""
    histinfo = f", {len(hist_tracks)} histogram track(s)" if hist_tracks else ""
    print(f"{path}: {len(events)} events, {begins} spans, {instants} instants, "
          f"{counters} counter points{extra}{ringinfo}{flowinfo}{histinfo}")


def validate(path):
    with open(path) as f:
        doc = json.load(f)
    base = os.path.basename(path)
    stem = base[:-len(".json")] if base.endswith(".json") else base
    if stem.startswith("BENCH_"):
        validate_bench(path, doc, stem[len("BENCH_"):])
    elif stem.startswith("CAMPAIGN_"):
        validate_campaign(path, doc, stem[len("CAMPAIGN_"):])
    else:
        validate_trace(path, doc)


def main(argv):
    if len(argv) < 2:
        raise SystemExit(
            "usage: validate_traces.py FILE.json [FILE.json ...] "
            "(TRACE_*, BENCH_* or CAMPAIGN_*)")
    for path in argv[1:]:
        validate(path)


if __name__ == "__main__":
    main(sys.argv)
