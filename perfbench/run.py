#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload dc_memcached --seed 1 \\
        --seconds 25 --trace 0

`--workload all` runs every workload in turn, each in its own process.

The first run configures and builds the simulator libraries (../src) and
the benchmark program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only re-check that build. Build
output goes to stderr. The program's stdout is passed through unchanged:
its last line is the JSON result, and its exit code is non-zero only when
a simulated result failed verification.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dc_memcached", "boot_idle", "dc_memcached_2w",
             "dc_memcached_2shard"]
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: simulator sources (src/) not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    state_dir = os.path.join(build_dir, "state")
    os.makedirs(state_dir, exist_ok=True)

    def argv(workload):
        return [binary, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--state-dir", state_dir, "--reference",
                os.path.join(HERE, "reference_digests.txt")]

    sys.stdout.flush()
    if args.workload != "all":
        os.execv(binary, argv(args.workload))
    # One process per workload, in turn; fail if any verification failed.
    codes = [subprocess.run(argv(w)).returncode for w in WORKLOADS]
    sys.exit(max(codes))

if __name__ == "__main__":
    main()
