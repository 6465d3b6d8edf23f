#!/usr/bin/env python3
"""Builds the pex benchmark and the release daemon, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay|socket|edit --seed N \
        --seconds S --trace 0|1

Build output goes to stderr; the benchmark's report goes to stdout and
ends with one JSON line. The exit code is the benchmark's: 0 only when
every correctness check passed. Builds land in $CARGO_TARGET_DIR
(default: .bench_build); scratch files in .bench_tmp/, where traced runs
also leave their span files.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself never runs this long; a hung run is killed with
# every process it started.
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "pex-serve", "--bin", "pex-serve"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["replay", "socket", "edit"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)

    scratch = os.path.join(ROOT, ".bench_tmp")
    work_dir = os.path.join(scratch, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(target_dir, "release", "pex-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target_dir, "release", "pex-serve"),
        "--work-dir", work_dir,
    ]
    # A session of its own, so a timeout can stop the daemons too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s; killed", file=sys.stderr)
        code = 1
    finally:
        # Whatever the outcome, no process of this run survives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for name in os.listdir(work_dir):
            if name.startswith("trace-"):
                os.replace(os.path.join(work_dir, name), os.path.join(scratch, name))
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
