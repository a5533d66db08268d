#!/usr/bin/env python3
"""Builds heapmd-cli and the ledger from source, then runs the ledger.

Run from the repository root:

    python3 ledger/run.py --workload spec-graph|commercial-long|bug-catalog \
        [--seed N] [--seconds S] [--trace 0|1]

Build output goes to $CARGO_TARGET_DIR (default: .bench_build); the run's
working files and span dumps go to .ledger/. Build failures exit non-zero
without printing a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["-p", "heapmd-bench", "--bin", "heapmd-cli"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        # Cargo reports on stderr; stdout carries only the result line.
        done = subprocess.run(
            ["cargo", "build", "--offline", "--release", "--quiet"] + build,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(done.returncode)
    release = os.path.join(target, "release")
    ledger = os.path.join(release, "heapmd-ledger")
    argv = [ledger, "--cli", os.path.join(release, "heapmd-cli"),
            "--work", os.path.join(ROOT, ".ledger")] + sys.argv[1:]
    os.execv(ledger, argv)


if __name__ == "__main__":
    main()
