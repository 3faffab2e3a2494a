#!/usr/bin/env python3
"""Build and run the repository benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload sim-zipf --seed 1 --seconds 20 --trace 0

It builds the Go program in this directory (a module of its own that
compiles the repository's packages from source) and runs it with the given
arguments. The last line of standard output is the result, one JSON object.
Everything the build and the runs leave behind -- Go caches, the binary,
per-run records and spans -- goes under .bench_build/ in the current
directory. README.md in this directory describes workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

# A run measures --seconds of work plus set-up and checks; this bounds a
# wedged run well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(".bench_build")
    env = go_env(build)
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: no go toolchain on PATH")
    binary = os.path.join(build, "bin", "perfbench")
    # Build output goes to stderr: standard output carries only results.
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.exit("run.py: build failed")
    args = [binary] + sys.argv[1:] + ["-out", os.path.join(build, "out")]
    try:
        ran = subprocess.run(args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
