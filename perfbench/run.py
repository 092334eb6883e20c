#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload decompose-mix --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` at the repository root), then runs it with the
given arguments. The last line of stdout is the JSON result; build output
and the human-readable metric table go to stderr. Exits non-zero without
a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
