#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulator.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/, linked against the library in
src/) with the release preset's flags into .bench_build/perfbench, runs
one workload and prints every metric by name and unit.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 prints the end-to-end metrics (tracing
off); --trace 1 is the separate traced run with the per-layer metrics.

The exit status is 0 only if the build, every simulated run and every
output check succeeded.  See perfbench/README.md for the workloads, the
metrics and how to confirm a claimed gain.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["cell_radix_tsoper", "cell_canneal_bsp", "sweep_fig11",
             "sweep_crash"]
# Flags of the release preset in CMakePresets.json.
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG",
    "-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON",
]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, cwd, env):
    """Run a build step with its output on stderr; False if it failed."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    return proc.returncode == 0


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's and LTO's temporary files stay inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", os.path.join(root, "perfbench"),
                            "-B", build_dir] + CMAKE_FLAGS, root, env):
            return None
    if not run_checked(["cmake", "--build", build_dir, "--target",
                        "perfbench", "-j", jobs], root, env):
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.isfile(exe) else None


def provenance(root):
    """git sha (with -dirty) when the checkout is a git repository, else a
    digest of the simulator sources; cpu model; nproc.  The program's own
    header line names the build type it was compiled with."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--abbrev=12"],
                cwd=root, capture_output=True, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    if not sha:
        h = hashlib.sha256()
        src = os.path.join(root, "src")
        for dirpath, dirnames, filenames in sorted(os.walk(src)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        sha = "src-sha256:" + h.hexdigest()[:16]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "provenance: source %s, cpu %s, nproc %d" % (
        sha, cpu, os.cpu_count() or 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at %s/src; run from the "
            "root of a source checkout" % root)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    exe = build(root, build_dir)
    if not exe:
        log("perfbench: build failed")
        return 3
    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        proc = subprocess.run(
            [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
             "--out-dir=" + out_dir],
            cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench: the program exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print("  " + provenance(root))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
