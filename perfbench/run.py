#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 24 --trace 0

Builds the library, the stock dynasparse_serve and the perfbench binary
from the sources beside this directory (Release, lock-order check off)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), prints
a host fingerprint, runs the workload and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "serve_hot", "serve_sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the two binaries the benchmark runs."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "dynasparse_serve"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            fail("build failed: " + " ".join(cmd))


def cmake_cache(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def host_fingerprint(build_dir):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cxx = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        cxx_version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                                     text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cxx_version = cxx
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "*", "*"))
                     + glob.glob(os.path.join(ROOT, "tools", "*.cpp"))
                     + [os.path.join(ROOT, "CMakeLists.txt")])
    for path in sources:
        with open(path, "rb") as f:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": cxx_version,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "DYNASPARSE_LOCK_ORDER_CHECK": cmake_cache(build_dir, "DYNASPARSE_LOCK_ORDER_CHECK"),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def cpu_times():
    """The aggregate "cpu" line of /proc/stat (user ... steal, in ticks)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def report_trace_overhead(build_dir, workload, result, trace):
    """Keep each run's metrics; a traced run prints its end-to-end numbers
    minus those of the last untraced run of the same workload."""
    path = os.path.join(build_dir, "last_%s_trace%d.json" % (workload, trace))
    with open(path, "w") as f:
        json.dump(result["metrics"], f)
    untraced = os.path.join(build_dir, "last_%s_trace0.json" % workload)
    if not trace or not os.path.isfile(untraced):
        return
    with open(untraced) as f:
        base = json.load(f)
    for name in ("p50_ms", "p99_ms", "capacity_rps"):
        traced = result["metrics"]["traced." + name]["value"]
        plain = base[name]["value"]
        print("tracing overhead %s: %+.4g (traced %.6g - untraced %.6g)"
              % (name, traced - plain, traced, plain))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no dynasparse sources beside perfbench/ (CMakeLists.txt, src/): nothing to measure")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    print("host: " + json.dumps(host_fingerprint(build_dir), sort_keys=True))
    sys.stdout.flush()

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "dynasparse", "dynasparse_serve")]
    # Its own session, so a timeout also takes down the server it started.
    cpu_before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        fail("perfbench printed no result line")
    for line in lines[:-1]:
        print(line)
    # Time the hypervisor gave this VM's vCPUs to others while the workload
    # ran: the main source of run-to-run spread on shared hosts.
    delta = [b - a for a, b in zip(cpu_before, cpu_times())]
    print("host steal during run: %.1f%% of CPU time" % (100.0 * delta[7] / max(1, sum(delta))))
    report_trace_overhead(build_dir, args.workload, result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
