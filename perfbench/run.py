#!/usr/bin/env python3
"""Outside-in benchmark of Lepton's put and get paths.

    python3 perfbench/run.py --workload ingest_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the benchmark program, the lepton
library and the leptond daemon from the checkout's sources (CMake, Release;
the build directory is $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs one workload. The last line of stdout is
the JSON result; build output goes to stderr. Generated inputs, stores and
span files live under .perfbench/. See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_large", "serve_large", "small_zipf")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds; False when the sources do not build."""
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "leptond",
           "--parallel", jobs]
    return subprocess.run(cmd, stdout=out, stderr=out).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--leptond", os.path.join(build_dir, "lepton", "leptond"),
           "--work-dir", ".perfbench"]
    sys.stdout.flush()
    # The benchmark and its leptond children run in their own process
    # group, which is killed whatever way this script ends.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(4)))
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 3
    except KeyboardInterrupt:
        rc = 4
    kill_group()
    return rc


if __name__ == "__main__":
    sys.exit(main())
