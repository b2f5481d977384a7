#!/usr/bin/env python3
"""Build lmond and the lmonbench package from source, then run the benchmark.

Usage (from the repository root):

    python3 lmonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build under the
current directory). The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    here = os.path.dirname(os.path.abspath(__file__))
    builds = [
        # The real lmond, from the repository's own workspace and lock file.
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "lmond"],
        # The benchmark package (its own workspace; path deps on the crates).
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the JSON stays the last stdout line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target_dir, "release")
    bench = [os.path.join(release, "lmonbench"), "--lmond", os.path.join(release, "lmond")]
    return subprocess.run(bench + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
