#!/usr/bin/env python3
"""Validate an acpsim --heartbeat JSONL stream (schema acp-heartbeat-v1).

Stdlib-only structural + invariant checker, run by CI against the
heartbeat smoke output:

  - every line parses as one JSON object with a known "t" record type
    (sweep_start, run_start, tick, run_end, point, sweep_end) and a
    numeric "wall" timestamp;
  - the stream starts with sweep_start (carrying the schema tag and a
    provenance manifest) and ends with sweep_end;
  - per (workload, label) run: run_start precedes ticks, all ticks
    share one positive intervalCycles (the period) and tick k sits on
    its boundary, cycle == k * intervalCycles (so cycles strictly
    advance); cumulative insts never go backwards, intervalIpc ==
    intervalInsts / intervalCycles, stall deltas are non-negative and
    bounded by the period, and run_end closes the feed;
  - sweep accounting: point records count up to done == total, the
    cached/simulated split adds up, and sweep_end totals match;
  - a run shorter than one heartbeat interval is valid: run_start +
    run_end with no ticks.

Exit status 0 = valid; any violation prints a diagnostic and exits 1.

Usage: tools/check_heartbeat.py heartbeat.jsonl [more.jsonl ...]
       tools/check_heartbeat.py --self-test
"""

import json
import sys

RECORD_TYPES = {
    "sweep_start", "run_start", "tick", "run_end", "point", "sweep_end",
}


def fail(msg):
    print(f"check_heartbeat: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_stream(lines, where):
    records = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{where}:{n}: not valid JSON: {exc}")
        if not isinstance(rec, dict):
            fail(f"{where}:{n}: line is not a JSON object")
        t = rec.get("t")
        if t not in RECORD_TYPES:
            fail(f"{where}:{n}: unknown record type {t!r}")
        if not isinstance(rec.get("wall"), (int, float)):
            fail(f"{where}:{n}: missing numeric 'wall' timestamp")
        records.append((n, rec))

    if not records:
        fail(f"{where}: empty stream")

    first, last = records[0][1], records[-1][1]
    if first["t"] != "sweep_start":
        fail(f"{where}: stream must start with sweep_start, "
             f"got {first['t']!r}")
    if first.get("schema") != "acp-heartbeat-v1":
        fail(f"{where}: unexpected schema {first.get('schema')!r}")
    if not isinstance(first.get("manifest"), dict):
        fail(f"{where}: sweep_start carries no manifest object")
    if first["manifest"].get("schema") != "acp-manifest-v1":
        fail(f"{where}: manifest schema is "
             f"{first['manifest'].get('schema')!r}")
    if last["t"] != "sweep_end":
        fail(f"{where}: stream must end with sweep_end, got {last['t']!r}")

    total = first.get("total")
    if not isinstance(total, int) or total <= 0:
        fail(f"{where}: sweep_start total {total!r} is not a positive int")

    # Per-run feeds keyed on (workload, label). State: None = no feed
    # yet, dict = open feed, "closed" = run_end seen.
    runs = {}
    points_seen = 0
    last_done = 0
    for n, rec in records:
        t = rec["t"]
        if t in ("run_start", "tick", "run_end"):
            key = (rec.get("workload"), rec.get("label"))
            if None in key:
                fail(f"{where}:{n}: {t} missing workload/label")
            state = runs.get(key)
            if t == "run_start":
                if state is not None and state != "closed":
                    fail(f"{where}:{n}: run_start for {key} while a "
                         f"feed is already open")
                runs[key] = {"cycle": -1, "insts": -1, "ticks": 0}
            elif state is None or state == "closed":
                fail(f"{where}:{n}: {t} for {key} without run_start")
            elif t == "tick":
                cycle, insts = rec.get("cycle"), rec.get("insts")
                dc, di = rec.get("intervalCycles"), rec.get("intervalInsts")
                for name, v in (("cycle", cycle), ("insts", insts),
                                ("intervalCycles", dc),
                                ("intervalInsts", di),
                                ("txns", rec.get("txns"))):
                    if not isinstance(v, int) or v < 0:
                        fail(f"{where}:{n}: tick {name} {v!r} is not a "
                             f"non-negative int")
                period = state.setdefault("period", dc)
                if dc != period or dc == 0:
                    fail(f"{where}:{n}: intervalCycles {dc} is not the "
                         f"run's period {period}")
                k = state["ticks"] + 1
                if cycle != k * period:
                    fail(f"{where}:{n}: tick {k} at cycle {cycle} is off "
                         f"its period boundary {k * period}")
                if insts < max(state["insts"], 0):
                    fail(f"{where}:{n}: cumulative insts went backwards")
                if dc > 0:
                    ipc = rec.get("intervalIpc")
                    if not isinstance(ipc, (int, float)) or \
                            abs(ipc - di / dc) > 1e-4:
                        fail(f"{where}:{n}: intervalIpc {ipc!r} != "
                             f"{di}/{dc}")
                stalls = rec.get("stalls")
                if not isinstance(stalls, dict):
                    fail(f"{where}:{n}: tick missing stalls object")
                for cause, delta in stalls.items():
                    if not isinstance(delta, int) or delta < 0:
                        fail(f"{where}:{n}: stall delta {cause}={delta!r}")
                if sum(stalls.values()) > dc:
                    fail(f"{where}:{n}: stall deltas exceed the "
                         f"interval length {dc}")
                state["cycle"], state["insts"] = cycle, insts
                state["ticks"] += 1
            else:  # run_end
                for name in ("cycle", "insts", "ipc", "reason"):
                    if name not in rec:
                        fail(f"{where}:{n}: run_end missing {name!r}")
                if state["ticks"] and rec["cycle"] < state["cycle"]:
                    fail(f"{where}:{n}: run_end cycle {rec['cycle']} "
                         f"behind last tick {state['cycle']}")
                runs[key] = "closed"
        elif t == "point":
            for name in ("done", "total", "cached", "simulated"):
                if not isinstance(rec.get(name), int):
                    fail(f"{where}:{n}: point missing int {name!r}")
            if rec["total"] != total:
                fail(f"{where}:{n}: point total {rec['total']} != "
                     f"sweep total {total}")
            if rec["done"] != last_done + 1:
                fail(f"{where}:{n}: point done {rec['done']} is not "
                     f"sequential after {last_done}")
            if rec["cached"] + rec["simulated"] != rec["done"]:
                fail(f"{where}:{n}: cached {rec['cached']} + simulated "
                     f"{rec['simulated']} != done {rec['done']}")
            last_done = rec["done"]
            points_seen += 1

    open_runs = [k for k, v in runs.items() if v != "closed"]
    if open_runs:
        fail(f"{where}: feeds never closed by run_end: {open_runs}")
    if points_seen != total:
        fail(f"{where}: {points_seen} point records for a sweep of "
             f"{total}")
    if last.get("total") != total:
        fail(f"{where}: sweep_end total {last.get('total')!r} != "
             f"{total}")
    if last.get("cached", 0) + last.get("simulated", 0) != total:
        fail(f"{where}: sweep_end cached+simulated != total")
    return points_seen, sum(1 for _, r in records if r["t"] == "tick")


def check_file(path):
    with open(path) as handle:
        points, ticks = check_stream(handle.readlines(), path)
    print(f"check_heartbeat: OK: {path}: {points} point(s), "
          f"{ticks} tick(s)")


def self_test():
    """Hermetic checks of the checker itself (run by ctest)."""

    def stream_ok(lines):
        # Run in a subprocess-free way: fail() raises SystemExit.
        try:
            check_stream(lines, "<self-test>")
            return True
        except SystemExit:
            return False

    def tick(cycle, interval_cycles, insts, stalls=None):
        return json.dumps({
            "t": "tick", "workload": "mcf", "label": "baseline",
            "cycle": cycle, "insts": insts,
            "intervalCycles": interval_cycles, "intervalInsts": 500,
            "intervalIpc": 500 / interval_cycles, "txns": 5,
            "stalls": stalls or {"mem_data": 20000}, "wall": 1.1})

    manifest = {"schema": "acp-manifest-v1", "gitSha": "x"}
    good = [
        json.dumps({"t": "sweep_start", "schema": "acp-heartbeat-v1",
                    "total": 2, "jobs": 1, "manifest": manifest,
                    "wall": 1.0}),
        json.dumps({"t": "run_start", "workload": "mcf",
                    "label": "baseline", "wall": 1.0}),
        tick(25000, 25000, 500),
        tick(50000, 25000, 1000),
        json.dumps({"t": "run_end", "workload": "mcf",
                    "label": "baseline", "cycle": 60000, "insts": 1200,
                    "ipc": 0.02, "reason": "inst_limit", "wall": 1.2}),
        json.dumps({"t": "point", "done": 1, "total": 2, "cached": 0,
                    "simulated": 1, "workload": "mcf",
                    "label": "baseline", "ipc": 0.02,
                    "fromCache": False, "etaSeconds": 1.0, "wall": 1.2}),
        # Short run: no tick between run_start and run_end is valid.
        json.dumps({"t": "run_start", "workload": "art",
                    "label": "baseline", "wall": 1.2}),
        json.dumps({"t": "run_end", "workload": "art",
                    "label": "baseline", "cycle": 900, "insts": 800,
                    "ipc": 0.9, "reason": "inst_limit", "wall": 1.3}),
        json.dumps({"t": "point", "done": 2, "total": 2, "cached": 0,
                    "simulated": 2, "workload": "art",
                    "label": "baseline", "ipc": 0.9,
                    "fromCache": False, "etaSeconds": 0.0, "wall": 1.3}),
        json.dumps({"t": "sweep_end", "total": 2, "cached": 0,
                    "simulated": 2, "wallSeconds": 0.3, "wall": 1.3}),
    ]
    assert stream_ok(good), "known-good stream rejected"

    def with_ticks(*ticks):
        return good[:2] + list(ticks) + good[4:]

    bad_end = list(good)
    bad_end[4] = json.dumps({
        "t": "run_end", "workload": "mcf", "label": "baseline",
        "cycle": 40000, "insts": 1200, "ipc": 0.03,
        "reason": "inst_limit", "wall": 1.2})
    assert not stream_ok(bad_end), "run_end behind last tick not caught"

    truncated = good[:-1]
    assert not stream_ok(truncated), "missing sweep_end not caught"

    orphan = good[:1] + good[2:]
    assert not stream_ok(orphan), "tick without run_start not caught"

    garbage = good[:4] + ["{not json"] + good[4:]
    assert not stream_ok(garbage), "non-JSON line not caught"

    overfull = with_ticks(tick(25000, 25000, 500, {"mem_data": 30000}),
                          good[3])
    assert not stream_ok(overfull), \
        "stall deltas exceeding the interval not caught"

    # A feed that samples whenever it happens to wake drifts off the
    # period: each tick spans from the previous one, so every
    # intervalCycles matches its cycle step, yet none is on a boundary.
    drifting = with_ticks(tick(25051, 25051, 500), tick(50151, 25100, 1000))
    assert not stream_ok(drifting), "drifting tick periods not caught"

    # A steady period that starts off the boundary: only the first
    # tick's position gives it away.
    shifted = with_ticks(tick(25051, 25000, 500), tick(50051, 25000, 1000))
    assert not stream_ok(shifted), "first tick off its boundary not caught"

    print("check_heartbeat: self-test OK")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
