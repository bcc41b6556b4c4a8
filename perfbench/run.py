#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` (release, offline)
into `$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset,
then runs it with the given arguments. Its standard output passes
through unchanged: the last line is the result object. Scratch files
(WAL directories, span dumps) go to `<target dir>/perfbench-work`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
