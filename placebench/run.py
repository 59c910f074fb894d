#!/usr/bin/env python3
"""Build the placement benchmark and the placed server from source, then run
one benchmark workload.

    python3 placebench/run.py --workload neotrop-ml --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes to .bench_build/ at the root of
the checkout: the Go build cache, the two binaries, the generated inputs and
the outputs. The last line of standard output is the result object printed
by the benchmark program (see placebench/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    """Environment that keeps the Go toolchain's writes inside BUILD."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"),
                     ("TMPDIR", "tmp")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["CGO_ENABLED"] = "0"
    return env


def build(env):
    """Build placed from the repository module and the benchmark from its own."""
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "placed"), "./cmd/placed"]),
        (os.path.join(ROOT, "placebench"),
         ["go", "build", "-o", os.path.join(bindir, "placebench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return bindir


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod at %s; the benchmark builds the repository from source" % ROOT)
    env = go_env()
    bindir = build(env)
    cmd = [os.path.join(bindir, "placebench")] + sys.argv[1:] + [
        "--placed", os.path.join(bindir, "placed"),
        "--work", os.path.join(BUILD, "work"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
