#!/usr/bin/env python3
"""End-to-end checks of what acpsim and the bench binaries write,
registered with ctest.

  acpsim_artifacts.py json ACPSIM CHECK_PROFILE
      A profiled, interval-sampled two-policy sweep writes --json that
      tools/check_profile.py accepts and whose every section parses:
      manifest, telemetry, and per point the intervals and profile.

  acpsim_artifacts.py cached-stats ACPSIM
      Two --cache --stats runs in one scratch directory print the same
      statistics: the second, served from ./acp_store, prints them from
      the stored result.

  acpsim_artifacts.py multicore ACPSIM CHECK_PROFILE
      Two cores sharing one secure memory controller, bus and auth
      engine: a profiled run keeps every profiler invariant, and
      repeated runs match byte for byte (FCFS bus grants make the
      interleaving deterministic), alone and as a '+'-joined workload
      mix.

  acpsim_artifacts.py store-sharing ACPSIM
      Two acpsim processes fill one ./acp_store at the same time; the
      store is one file of checksummed lines, a third run is served
      from it entirely, and every run equals one without the store. A
      run with nothing cacheable creates no store.

  acpsim_artifacts.py intervals ACPSIM
      --stats-interval rows, alone and with two cores: every row but
      the tail covers one whole period of the core's clock, and core
      0's rows sum to its cycles, committed and stall.* counters.

  acpsim_artifacts.py trace ACPSIM
      A --trace file covers the whole window: every async span closes,
      there is one auth.verify span per auth request, and a 2-core
      trace gives each core its own pipeline track.

  acpsim_artifacts.py cosim ACPSIM
      A co-simulated single point exits 0 and prints the insts, cycles
      and IPC of the plain run; --cosim on a sweep of two points is
      fatal.

  acpsim_artifacts.py trace-commits ACPSIM
      --trace-commits N prints exactly N commit lines (cycle, pc,
      disassembly) before the run summary, and an applu point's 400
      lines (cycles, results, store addresses and values) equal
      tests/expected/trace_commits_applu.txt byte for byte.

  acpsim_artifacts.py paper-machine ACPSIM RECORDING
      acpsim runs the machine the bench harness records: an obf point
      (whose remap placement depends on the memory size) at the
      recording's window prints the cycles and instructions RECORDING
      (BENCH_event_loop.json) holds for it. Past 4 cores the memory
      doubles until each core's slice holds 16 MiB.

  acpsim_artifacts.py bench BINARY [POINTS]
      A bench binary (bench/CMakeLists.txt registers each) run at a
      smoke window exits 0 and prints a table: a rule line followed by
      a row. An IPC recorder is given POINTS and a path: it writes the
      path, a recording of that many points.

Every mode runs in its own temporary directory.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter

# The window of the end-to-end runs: long enough that mcf stalls on the
# bus, which tools/check_profile.py requires.
WINDOW = ["--insts", "20000", "--warmup", "10000"]

# The point whose commit trace tests/expected/trace_commits_applu.txt
# holds: 400 commits, 36 of them stores and 327 register writes.
TRACE_POINT = ["applu", "--policy", "write", "--warmup", "2000", "--insts",
               "3000", "--ws", "256K", "--trace-commits", "400"]
EXPECTED_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "expected", "trace_commits_applu.txt")

# The bench binaries' smoke window: each runs in well under a second.
BENCH_ENV = {"REPRO_MEASURE_INSTS": "2000", "REPRO_WARMUP_INSTS": "2000",
             "REPRO_WS_BYTES": "128K", "ACP_JOBS": "2"}
RULE = re.compile(r"[-=]{20,}$")


def run(args, cwd, env=None):
    proc = subprocess.run(args, cwd=cwd, env=env, check=True, text=True,
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


def simulated(path):
    """The sweep JSON minus what describes the run that wrote it
    (provenance, host telemetry, wall times): what must repeat."""
    with open(path) as handle:
        doc = json.load(handle)
    doc.pop("manifest", None)
    doc.pop("telemetry", None)
    text = json.dumps(doc, sort_keys=True)
    return re.sub(r'"wallSeconds": [0-9.e+-]+', '"wallSeconds": 0', text)


def check_multicore(acpsim, check_profile):
    with tempfile.TemporaryDirectory() as tmp:
        def sweep(workload, name, *extra):
            path = os.path.join(tmp, name)
            run([acpsim, workload, "--policy", "commit", *WINDOW, *extra,
                 "--json", path], tmp)
            return path

        profile = sweep("mcf", "mc_profile.json", "--cores", "2",
                        "--profile")
        subprocess.run([sys.executable, check_profile, profile], check=True)
        a, b = (simulated(sweep("mcf", "mc%d.json" % i, "--cores", "2"))
                for i in (1, 2))
        assert a == b, "repeated 2-core runs diverge"
        a, b = (simulated(sweep("mcf+swim", "mix%d.json" % i))
                for i in (1, 2))
        assert a == b, "repeated mcf+swim mix runs diverge"
    print("2-core determinism OK")


def fnv1a(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) % (1 << 64)
    return h


def check_store_sharing(acpsim):
    sweep = [acpsim, "mcf,swim", "--policy", "baseline,commit",
             "--warmup", "10000", "--insts", "20000"]

    def points(path):
        with open(path) as handle:
            doc = json.load(handle)
        for p in doc["points"]:
            # Whether a result came from the store is run metadata,
            # not part of the bit-identity contract.
            p["result"].pop("fromCache", None)
        return doc["points"], doc["telemetry"]

    with tempfile.TemporaryDirectory() as tmp:
        # Each put is one write(2) of a whole line to an O_APPEND
        # descriptor, which the kernel lands whole at the end of the
        # file, so the store needs no lock.
        first_a = subprocess.Popen(sweep + ["--cache", "--json",
                                            "first_a.json"],
                                   cwd=tmp, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        run(sweep + ["--cache", "--json", "first_b.json"], tmp)
        assert first_a.wait() == 0, "concurrent first run failed"
        run(sweep + ["--cache", "--json", "replay.json"], tmp)
        run(sweep + ["--json", "no_store.json"], tmp)

        store = os.path.join(tmp, "acp_store")
        assert os.listdir(store) == ["results-v2.txt"], os.listdir(store)
        with open(os.path.join(store, "results-v2.txt"), "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines.pop() == b"", "store ends in a partial line"
        for line in lines:
            digest, checksum, payload = line.split(b" ", 2)
            assert re.fullmatch(rb"[0-9a-f]{64}", digest), line[:80]
            assert int(checksum, 16) == fnv1a(payload), line[:80]
        reference, _ = points(os.path.join(tmp, "no_store.json"))
        for name in ("first_a.json", "first_b.json"):
            assert points(os.path.join(tmp, name))[0] == reference, name
        replay, t = points(os.path.join(tmp, "replay.json"))
        assert t["cached"] == t["total"] and t["simulated"] == 0, t
        assert replay == reference, \
            "stored results differ from a run without the store"
        assert len({l.split(b" ", 1)[0] for l in lines}) == t["total"]

    with tempfile.TemporaryDirectory() as tmp:
        run([acpsim, "mcf", "--policy", "commit", "--insts", "2000",
             "--warmup", "1000", "--profile", "--cache"], tmp)
        assert not os.path.exists(os.path.join(tmp, "acp_store")), \
            "an uncacheable run created a store"
    print("store-sharing OK: %d checksummed lines; %d points served "
          "from the shared store, bit-identical" % (len(lines), t["total"]))


def check_intervals(acpsim):
    period = 2000
    with tempfile.TemporaryDirectory() as tmp:
        for cores, prefix in (([], "core."), (["--cores", "2"],
                                               "cpu0.core.")):
            path = os.path.join(tmp, "iv%d.json" % len(cores))
            run([acpsim, "mcf", "--policy", "commit", *cores, *WINDOW,
                 "--stats-interval", str(period), "--json", path], tmp)
            with open(path) as handle:
                result = json.load(handle)["points"][0]["result"]
            rows, counters = result["intervals"], result["counters"]
            assert result["intervalPeriod"] == period and rows, cores
            for k, row in enumerate(rows):
                if k + 1 == len(rows):
                    assert 0 < row["cycles"] <= period, (cores, k)
                else:
                    assert row["cycles"] == period, (cores, k)
                assert row["endCycle"] == k * period + row["cycles"], \
                    (cores, k)
            assert sum(r["cycles"] for r in rows) == \
                counters[prefix + "cycles"]
            assert sum(r["insts"] for r in rows) == \
                counters[prefix + "committed"]
            stalls = [n for n in counters
                      if n.startswith(prefix + "stall.")]
            assert stalls, cores
            for name in stalls:
                cause = name[len(prefix + "stall."):]
                assert sum(r["stalls"].get(cause, 0) for r in rows) == \
                    counters[name], (cores, name)
            print("intervals OK: %s, %d rows on %d-cycle boundaries" %
                  (prefix + "*", len(rows), period))


def check_trace(acpsim):
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        run_path = os.path.join(tmp, "run.json")
        two_path = os.path.join(tmp, "trace_2core.json")
        run([acpsim, "mcf", "--policy", "commit", *WINDOW,
             "--trace", trace_path, "--profile", "--json", run_path], tmp)
        run([acpsim, "mcf", "--policy", "commit", "--cores", "2", *WINDOW,
             "--trace", two_path], tmp)
        with open(trace_path) as handle:
            trace = json.load(handle)["traceEvents"]
        with open(run_path) as handle:
            counters = json.load(handle)["points"][0]["result"]["counters"]
        with open(two_path) as handle:
            two = json.load(handle)["traceEvents"]

    spans = {ph: Counter((e["cat"], e["id"], e["name"])
                         for e in trace if e["ph"] == ph)
             for ph in "be"}
    assert spans["b"] and spans["b"] == spans["e"], \
        "unpaired async spans: %r" % ((spans["b"] - spans["e"]) +
                                      (spans["e"] - spans["b"]))
    verify = sum(n for (_, _, name), n in spans["b"].items()
                 if name == "auth.verify")
    assert verify == counters["auth.requests"], \
        (verify, counters["auth.requests"])
    names = {e["tid"]: e["args"]["name"] for e in two if e["ph"] == "M"}
    tids = {e["tid"] for e in two if e.get("cat") == "pipeline"}
    assert tids == {0, 1}, tids
    assert [names[t] for t in sorted(tids)] == \
        ["cpu0.core", "cpu1.core"], names
    print("trace OK: %d spans, %d auth.verify == auth.requests, "
          "2-core tracks %r" % (sum(spans["b"].values()), verify,
                                sorted(names.values())))


def summary(stdout):
    """The insts, cycles and IPC lines of a single-point run."""
    return [line for line in stdout.splitlines()
            if line.split(" ", 1)[0] in ("insts", "cycles", "IPC")]


def check_cosim(acpsim):
    point = [acpsim, "mcf", "--policy", "commit", *WINDOW]
    with tempfile.TemporaryDirectory() as tmp:
        plain, _ = run(point, tmp)
        cosim, _ = run(point + ["--cosim"], tmp)
        sweep = subprocess.run([acpsim, "mcf,swim", "--cosim"], cwd=tmp,
                               text=True, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    assert len(summary(plain)) == 3, plain
    assert summary(cosim) == summary(plain), (cosim, plain)
    assert sweep.returncode == 1, sweep.returncode
    fatal = [line for line in sweep.stderr.splitlines()
             if line.startswith("fatal:")]
    assert fatal and "--trace/--trace-commits/--cosim" in fatal[-1], \
        sweep.stderr
    print("cosim OK: %s; a two-point sweep is fatal" %
          ", ".join(summary(cosim)))


def check_trace_commits(acpsim):
    count = 25
    with tempfile.TemporaryDirectory() as tmp:
        out, _ = run([acpsim, "mcf", "--policy", "commit", "--insts",
                      "2000", "--warmup", "1000", "--trace-commits",
                      str(count)], tmp)
    lines = out.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.startswith("workload "))
    commit = re.compile(r"\s*[0-9]+  0x[0-9a-f]{8}  [a-z]+")
    assert head == count, lines[:head + 1]
    for line in lines[:head]:
        assert commit.match(line), line

    with tempfile.TemporaryDirectory() as tmp:
        out, _ = run([acpsim, *TRACE_POINT], tmp)
    with open(EXPECTED_TRACE) as handle:
        want = handle.read().splitlines()
    got = out.splitlines()[:len(want)]
    for number, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "%s line %d: got %r, want %r" % (EXPECTED_TRACE,
                                                       number, g, w)
    assert len(got) == len(want), (len(got), len(want))
    print("trace-commits OK: %d commit lines, then the summary; %d "
          "applu lines as recorded" % (head, len(want)))


def check_paper_machine(acpsim, recording):
    with open(recording) as handle:
        doc = json.load(handle)
    want = next(p for p in doc["points"]
                if p["workload"] == "mcf"
                and p["policy"] == "commit+obfuscation")
    with tempfile.TemporaryDirectory() as tmp:
        out, _ = run([acpsim, "mcf", "--policy", "obf",
                      "--insts", str(doc["measureInsts"]),
                      "--warmup", str(doc["warmupInsts"]),
                      "--ws", str(doc["workingSetBytes"])], tmp)
    got = dict(line.split(None, 1) for line in summary(out))
    assert int(got["cycles"]) == want["cycles"], (got, want)
    assert int(got["insts"]) == want["insts"], (got, want)

    with tempfile.TemporaryDirectory() as tmp:
        run([acpsim, "mcf+gap+swim+art,mcf+gap+swim+art+gcc", "--insts",
             "100", "--warmup", "0", "--ws", "64K", "--json", "mix.json"],
            tmp)
        with open(os.path.join(tmp, "mix.json")) as handle:
            configs = [p["config"] for p in json.load(handle)["points"]]
    memory = [(c["numCores"], c["memoryBytes"], c["protectedBytes"])
              for c in configs]
    assert memory == [(4, 64 << 20, 64 << 20),
                      (5, 128 << 20, 128 << 20)], memory
    print("paper-machine OK: mcf commit+obfuscation ran %s cycles, as "
          "recorded; 4 cores share 64 MiB, 5 share 128 MiB"
          % got["cycles"].strip())


def check_bench(binary, points=None):
    name = os.path.basename(binary)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recording.json")
        args = [binary] if points is None else [binary, path]
        out, _ = run(args, tmp, dict(os.environ, **BENCH_ENV))
        if points is not None:
            with open(path) as handle:
                doc = json.load(handle)
            assert len(doc["points"]) == int(points), \
                (name, len(doc["points"]))
    lines = out.splitlines()
    rows = [row for rule, row in zip(lines, lines[1:])
            if RULE.match(rule) and row.strip() and not RULE.match(row)]
    assert rows, (name, out)
    print("bench OK: %s printed a table%s" %
          (name, "" if points is None else ", recorded %s points" % points))


def main():
    mode, args = sys.argv[1], sys.argv[2:]
    checks = {
        "json": check_json,
        "cached-stats": check_cached_stats,
        "multicore": check_multicore,
        "store-sharing": check_store_sharing,
        "intervals": check_intervals,
        "trace": check_trace,
        "cosim": check_cosim,
        "trace-commits": check_trace_commits,
        "paper-machine": check_paper_machine,
        "bench": check_bench,
    }
    if mode not in checks:
        sys.exit("unknown mode " + mode)
    checks[mode](*args)


if __name__ == "__main__":
    main()
