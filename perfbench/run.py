#!/usr/bin/env python3
"""Build the real-clock benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tcp-mixed --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
binary, the Go build cache and the per-run records all live under
.bench_build/ in the repository root; nothing is read or written outside
the repository.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for --seconds, then checks and reports; anything slower
# than this is a hung run.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        # The go command's scratch directories, otherwise under /tmp.
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        # The go command keeps its settings and telemetry under the user
        # config directory; point it into the build directory.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    })
    return env


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s is not a checkout of the repository (no go.mod)" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([BINARY] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
