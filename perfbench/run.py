#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds dpss_node and the load generator (perfbench_loadgen) from this
checkout's sources with perfbench/CMakeLists.txt, then runs one workload
against a loopback cluster of dpss_node processes:

    python3 perfbench/run.py --workload pss_search --seed 1 --seconds 20 --trace 0

The last line of stdout is the run's JSON result; build output goes to
stderr. Every process the run starts is stopped and waited for before this
script exits. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("pss_search", "scan_tableii", "subs_ingest")
LOADGEN_TIMEOUT_S = 170


def build():
    """Configures and builds both binaries; incremental after the first run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dpss source tree next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "dpss_node", "perfbench_loadgen",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def stop_group(pgid):
    """SIGKILLs whatever is left of the run's process group and waits until
    the group is empty (the load generator reaps its nodes; this is the backstop
    for a load generator that died first)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [
        os.path.join(BUILD, "perfbench_loadgen"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-bin", os.path.join(BUILD, "dpss", "net", "dpss_node"),
    ]
    # Its own process group, so every dpss_node it spawns can be stopped
    # together even if the load generator itself dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        sys.exit("perfbench: load generator exceeded %d s" % LOADGEN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
