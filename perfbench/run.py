#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tensor-udp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

It builds the Go program in perfbench/ (its own module, which uses the
repository's packages through a replace directive) into .bench_build/,
with the Go build cache and every other file the toolchain writes kept
there too, then runs it. The program's standard output is passed through;
its last line is the JSON result. The exit status is non-zero when the
build fails or any delivery fails verification.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["tensor-udp", "tensor-loss", "sip-churn", "rc-stream"]
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def go_env():
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def build(env):
    binary = os.path.join(BUILD, "perfbench")
    try:
        r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary


def run(binary, env, workload, seed, seconds, trace):
    cmd = [binary, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace)]
    if trace:
        cmd += ["-spans", os.path.join(BUILD, "spans", f"{workload}-seed{seed}.jsonl")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT}s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    binary = build(env)
    if binary is None:
        return 2
    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        status = run(binary, env, w, args.seed, args.seconds, args.trace) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
