#!/usr/bin/env python3
"""Build the questpro server and the benchmark from source, then run it.

One run (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 10 --trace 0

Repeat mode: runs a workload with seeds SEED, SEED+1, ... and prints each
metric's median, quartiles and spread (IQR / median):

    python3 perfbench/run.py --repeat 10 --workload scale_mix --seed 1 --seconds 10

Smoke mode: every workload at smoke length, untraced and traced, all checks:

    python3 perfbench/run.py --smoke

The benchmark's own tests (checker, client, and a smoke run of every
workload): python3 perfbench/run.py --test

Builds go to $CARGO_TARGET_DIR (default .bench_build at the repository root).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sessions", "scale_mix"]


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "questpro-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "questpro-perfbench"), os.path.join(release, "questpro")


def bench_args(server, args):
    work = os.path.join(target_dir(), "perfbench-work")
    return ["--server", server, "--work-dir", work] + args


def with_reference(bench, server, args):
    """For a traced run (--trace 1), first makes the untraced run on the
    same arguments and passes its op_iqm_ms on, so that the traced run
    reports its overhead (trace.overhead_pct). Other runs are unchanged."""
    if "--trace" not in args or args[args.index("--trace") + 1] != "1":
        return args
    plain = list(args)
    plain[plain.index("--trace") + 1] = "0"
    code, res = run_once(bench, server, plain)
    if code != 0 or res is None or not res["correct"]:
        sys.exit(f"perfbench: the untraced reference run failed: {res}")
    return args + ["--untraced-op-iqm-ms", repr(res["metrics"]["op_iqm_ms"]["value"])]


def run_once(bench, server, args):
    """Runs the benchmark binary, returning (exit code, parsed last line)."""
    p = subprocess.run([bench] + bench_args(server, args), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def take(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def repeat(bench, server, argv):
    n = int(take(argv, "--repeat", "10"))
    seed = int(take(argv, "--seed", "1"))
    values, shares = {}, []
    units = {}
    for i in range(n):
        code, res = run_once(bench, server, argv + ["--seed", str(seed + i)])
        if code != 0 or res is None or not res["correct"]:
            sys.exit(f"perfbench: run with seed {seed + i} failed: {res}")
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed + i}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              file=sys.stderr, flush=True)
    print(f"{'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<34} {units[name]:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f}")
    print(f"failed share per run: {sorted(set(shares))}")


def smoke(bench, server):
    ok = True
    for w in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"]
            code, res = run_once(bench, server, with_reference(bench, server, args))
            good = code == 0 and res is not None and res["correct"]
            print(f"{w} trace={trace}: {'ok' if good else 'FAILED'} {res and len(res['metrics'])} metrics")
            ok = ok and good
    return ok


def main():
    argv = sys.argv[1:]
    if "--test" in argv:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        sys.exit(subprocess.call(["cargo", "test", "--release", "--offline", "--manifest-path",
                                  "perfbench/Cargo.toml"], cwd=ROOT, env=env))
    bench, server = build()
    if "--repeat" in argv:
        repeat(bench, server, argv)
    elif argv == ["--smoke"]:
        sys.exit(0 if smoke(bench, server) else 1)
    else:
        argv = with_reference(bench, server, argv)
        sys.exit(subprocess.call([bench] + bench_args(server, argv), cwd=ROOT))


if __name__ == "__main__":
    main()
