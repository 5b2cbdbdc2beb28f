#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7_int --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the acpbench driver. The last line
of stdout is the JSON result. Other modes:

    --selfcheck   short run of the workload, traced and untraced, that
                  validates metric names and units against
                  BENCHMARK.json and requires zero failed ops (and, on
                  fig7_int, that the stored reference for input set 0
                  equals BENCH_event_loop.json)
    --record      rewrite perfbench/reference/<workload>.txt
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(HERE, "reference")

# Settings that would change what is measured. exp::submit routes to a
# daemon when ACP_CONNECT is set (acpbench also refuses it); the
# others are scale, parallelism and instrumentation overrides.
CLEARED_ENV = ("ACP_CONNECT", "ACP_JOBS", "ACP_SANITIZE",
               "ACP_CACHE_MAX_ENTRIES")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for key in list(env):
        if key in CLEARED_ENV or key.startswith("REPRO_"):
            if env[key]:
                log(f"run.py: ignoring {key}={env[key]}")
            del env[key]
    return env


def build(env):
    """Configure once, then (re)build the driver; returns (dir, binary)."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "acpbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)
    return build_dir, os.path.join(build_dir, "acpbench")


def run_driver(binary, out_dir, env, args, capture=False):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--out", out_dir]
    if capture:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, check=False)
        return proc.returncode, proc.stdout
    return subprocess.run(cmd, env=env, check=False).returncode, None


def check_fig7_reference():
    """Input set 0 of fig7_int must equal BENCH_event_loop.json."""
    bench = "BENCH_event_loop.json"
    if not os.path.exists(bench):
        log(f"selfcheck: {bench} not present, skipped")
        return True
    points = json.load(open(bench))["points"]
    expect = {f"{p['workload']}/{p['policy']}": p for p in points}
    got = {}
    for line in open(os.path.join(REFERENCE, "fig7_int.txt")):
        if line.startswith("0 "):
            fields = line.split()
            kv = dict(f.split("=", 1) for f in fields[2:])
            got[fields[1]] = kv
    ok = set(got) == set(expect)
    cycles = insts = 0
    for key, p in expect.items():
        g = got.get(key)
        if (g is None or int(g["cycles"]) != p["cycles"] or
                int(g["insts"]) != p["insts"] or
                f"{float(g['ipc']):.6f}" != f"{p['ipc']:.6f}"):
            log(f"selfcheck: {key} differs from {bench}")
            ok = False
            continue
        cycles += int(g["cycles"])
        insts += int(g["insts"])
    log(f"selfcheck: fig7_int set 0 vs {bench}: {len(got)} points, "
        f"{cycles} cycles, {insts} insts -> {'ok' if ok else 'MISMATCH'}")
    return ok


def selfcheck(binary, out_dir, env, args):
    spec = json.load(open("BENCHMARK.json"))
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args.trace, args.seconds = trace, 1
        code, out = run_driver(binary, out_dir, env, args, capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            log(f"selfcheck: trace {trace} exited {code}")
            return False
        result = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        units = {**want, **got}
        bad = [n for n, u in units.items()
               if not NAME_RE.match(n) or not UNIT_RE.match(u)]
        if got != want or bad:
            log(f"selfcheck: trace {trace} metrics differ from BENCHMARK.json "
                f"(missing {sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, bad names/units {bad})")
            ok = False
        if not result["correct"] or result["failed"] != 0:
            log(f"selfcheck: trace {trace}: {result['failed']} of "
                f"{result['attempted']} ops failed")
            ok = False
        log(f"selfcheck: {args.workload} seed {args.seed} trace {trace}: "
            f"{result['attempted']} ops, {result['failed']} failed")
    if args.workload == "fig7_int":
        ok = check_fig7_reference() and ok
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig7_int", "fp_long", "attacks"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    env = clean_env()
    try:
        build_dir, binary = build(env)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"run.py: build failed: {err}")
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.record:
        return subprocess.run([binary, "--workload", args.workload,
                               "--reference", REFERENCE, "--out", out_dir,
                               "--record"], env=env, check=False).returncode
    if args.selfcheck:
        return 0 if selfcheck(binary, out_dir, env, args) else 1
    code, _ = run_driver(binary, out_dir, env, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
