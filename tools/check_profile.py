#!/usr/bin/env python3
"""Validate the path profiles in an acpsim --profile --json document.

Stdlib-only structural + invariant checker, run by ctest
(tests/acpsim_artifacts.py) against a profiled sweep and a 2-core run:

  - top-level shape: {"version": "acp-exp-v3", "points": [...]}, at
    least one point carrying result.profile, and each profiled point's
    label agreeing with its profile's policy;
  - the telescoping invariant: for every per-kind row, the per-segment
    cycle sums add up to the row's latencyTotal EXACTLY (the profiler
    asserts this per transaction; here we re-check the aggregate end
    to end through the JSON serialisation);
  - census coverage: the path-shape counts add up to the transaction
    count;
  - the stall join: stall counters present and the demand segment
    table well-formed;
  - the leak audit, when present: classification consistent with its
    exposure-window fields.

Exit status 0 = valid; any violation prints a diagnostic and exits 1.

Usage: tools/check_profile.py run.json [more.json ...]
"""

import json
import sys

SEGMENTS = [
    "mshr", "gate", "remap", "counter", "bus_queue", "dram_burst",
    "decrypt", "verify", "writeback",
]


def fail(msg):
    print(f"check_profile: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_profile(profile, where):
    for key in ("policy", "txns", "kinds", "shapes", "slowest",
                "demandSegCycles"):
        if key not in profile:
            fail(f"{where}: profile missing key {key!r}")

    txns = profile["txns"]
    if txns <= 0:
        fail(f"{where}: profile recorded no transactions")

    total_count = 0
    for row in profile["kinds"]:
        kind = row.get("kind", "?")
        seg_sum = sum(s["sum"] for s in row["segments"].values())
        if seg_sum != row["latencyTotal"]:
            fail(f"{where}: kind {kind}: segment sums {seg_sum} != "
                 f"latencyTotal {row['latencyTotal']} - the telescoping "
                 f"decomposition broke")
        for name in row["segments"]:
            if name not in SEGMENTS:
                fail(f"{where}: kind {kind}: unknown segment {name!r}")
        if row["count"] <= 0:
            fail(f"{where}: kind {kind}: empty row serialised")
        total_count += row["count"]
    if total_count + profile.get("degenerate", 0) < txns:
        fail(f"{where}: per-kind counts {total_count} (+degenerate) "
             f"cover fewer transactions than recorded {txns}")

    shape_count = sum(s["count"] for s in profile["shapes"])
    if shape_count != txns:
        fail(f"{where}: shape census covers {shape_count} of {txns} "
             f"transactions")

    for name in profile["demandSegCycles"]:
        if name not in SEGMENTS:
            fail(f"{where}: unknown demand segment {name!r}")

    if "stalls" in profile and "bus_wait" not in profile["stalls"]:
        fail(f"{where}: stall join missing the bus_wait cause")

    audit = profile.get("audit")
    if audit is not None:
        if audit["leakWindowOpen"] and audit["novelExposuresInGap"] == 0:
            fail(f"{where}: leak window open with zero novel exposures")
        if audit["leakWindowOpen"] and not audit["tamperDetected"]:
            fail(f"{where}: leak window open without detected tampering")


def check_file(path):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("version") != "acp-exp-v3":
        fail(f"{path}: unexpected version {doc.get('version')!r}")
    profiled = 0
    for i, point in enumerate(doc.get("points") or []):
        where = (f"{path}[{i}] {point.get('workload')}/"
                 f"{point.get('label')}")
        for key in ("workload", "label", "result"):
            if key not in point:
                fail(f"{where}: point missing key {key!r}")
        profile = point["result"].get("profile")
        if profile is None:
            continue
        if point["label"] != profile.get("policy"):
            fail(f"{where}: point/profile policy labels disagree")
        check_profile(profile, where)
        profiled += 1
    if profiled == 0:
        fail(f"{path}: no profiled points")
    print(f"check_profile: OK: {path}: {profiled} point(s) valid")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
