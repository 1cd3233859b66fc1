#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpcb-gc --seed 1 --seconds 10 --trace 0

It builds the Go benchmark in perfbench/ (its own module, which
replaces the noftl module with the repository root) into .bench_build/,
with the Go build cache and configuration kept there too, then runs it
with the same arguments. The benchmark's last line of output is one JSON
object; its exit code is passed through. Without the repository's Go
sources next to perfbench/ the build fails and the script exits nonzero
without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    """Environment for the go tool that keeps every write in BUILD."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def build():
    """Build the benchmark binary; return an error message or None."""
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        return "no go.mod at the repository root: the noftl sources are missing"
    go = shutil.which("go")
    if go is None:
        return "the go toolchain is not on PATH"
    os.makedirs(BUILD, exist_ok=True)
    try:
        p = subprocess.run([go, "build", "-o", BINARY, "."], cwd=BENCH, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "build timed out"
    if p.returncode != 0:
        return "build failed"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tpcb-gc", "kv-serve", "htap-scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    err = build()
    if err:
        print("perfbench: " + err, file=sys.stderr)
        return 2
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans-dir", os.path.join(BUILD, "spans")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
