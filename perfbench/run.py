#!/usr/bin/env python3
"""Builds the `srank` server and the benchmark from source, then runs one
workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both builds use `CARGO_TARGET_DIR` when it
is set, else `target/`. Build output goes to standard error; standard output
is the benchmark's report, ending with one JSON line. The exit code is not 0
when a build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        print("perfbench: the workspace sources are missing; nothing to build", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "srank-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    run = [os.path.join(release, "perfbench"), "run", *sys.argv[1:],
           "--srank", os.path.join(release, "srank")]
    return subprocess.run(run, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
