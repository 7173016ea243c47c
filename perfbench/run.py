#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <serve_steady|dynrr_lp|fig3_offline> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) built against
the repository's crates. Build output goes to $CARGO_TARGET_DIR, or to
.bench_build in the repository root when that is unset. The last line of
standard output is the JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    # Build output goes to stderr so stdout carries only the benchmark's.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
