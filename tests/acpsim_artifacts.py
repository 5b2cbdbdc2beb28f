#!/usr/bin/env python3
"""End-to-end checks of what acpsim writes, registered with ctest.

  acpsim_artifacts.py json ACPSIM CHECK_PROFILE
      A profiled, interval-sampled two-policy sweep writes --json that
      tools/check_profile.py accepts and whose every section parses:
      manifest, telemetry, and per point the intervals and profile.

  acpsim_artifacts.py cached-stats ACPSIM
      Two --cache --stats runs in one scratch directory print the same
      statistics: the second, served from ./acp_store, prints them from
      the stored result.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(args, cwd):
    proc = subprocess.run(args, cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc.stdout, proc.stderr


def check_json(acpsim, check_profile):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.json")
        run([acpsim, "mcf", "--policy", "issue,commit", "--insts", "20000",
             "--warmup", "10000", "--profile", "--stats-interval", "2000",
             "--json", path], tmp)
        subprocess.run([sys.executable, check_profile, path], check=True)
        with open(path) as handle:
            doc = json.load(handle)

    assert doc["version"] == "acp-exp-v3", doc["version"]
    manifest = doc["manifest"]
    assert manifest["schema"] == "acp-manifest-v1", manifest
    assert isinstance(manifest["gitDirty"], bool), manifest
    assert isinstance(manifest["unixTime"], int), manifest
    telemetry = doc["telemetry"]
    assert telemetry["total"] == telemetry["simulated"] == 2, telemetry
    assert telemetry["cached"] == 0, telemetry
    labels = [p["label"] for p in doc["points"]]
    assert labels == ["authen-then-issue", "authen-then-commit"], labels
    for point in doc["points"]:
        result = point["result"]
        counters = result["counters"]
        assert result["insts"] == counters["core.committed"], point["label"]
        rows = result["intervals"]
        assert result["intervalPeriod"] == 2000 and rows, point["label"]
        assert sum(r["cycles"] for r in rows) == counters["core.cycles"]
        assert sum(r["insts"] for r in rows) == counters["core.committed"]
        profile = result["profile"]
        assert profile["policy"] == point["label"], profile["policy"]
        assert profile["audit"]["firstBadReq"] == -1, profile["audit"]
        for name, avg in result["averages"].items():
            assert set(avg) == {"count", "mean", "min", "max"}, name
    print("acpsim --json: %d points, every section parses" %
          len(doc["points"]))


def check_cached_stats(acpsim):
    args = [acpsim, "mcf", "--policy", "commit", "--insts", "2000",
            "--warmup", "1000", "--stats", "--cache"]
    with tempfile.TemporaryDirectory() as tmp:
        fresh, fresh_err = run(args, tmp)
        cached, cached_err = run(args, tmp)
    assert "(cached)" not in fresh_err, fresh_err
    assert "(cached)" in cached_err, cached_err
    stats = fresh.split("\n\n", 1)[1].splitlines()
    assert len(stats) > 50, fresh
    assert cached == fresh, "cached --stats differs from the fresh run"
    print("acpsim --stats --cache: %d statistic lines, fresh == cached" %
          len(stats))


def main():
    mode = sys.argv[1]
    if mode == "json":
        check_json(sys.argv[2], sys.argv[3])
    elif mode == "cached-stats":
        check_cached_stats(sys.argv[2])
    else:
        sys.exit("unknown mode " + mode)


if __name__ == "__main__":
    main()
