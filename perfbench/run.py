#!/usr/bin/env python3
"""Paper-scale benchmark of fivealarms: build, run one workload, report.

    python3 perfbench/run.py --workload repro_batch|serve_read|feed_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and
builds the runner and fa_served into .bench_build/perfbench (CMake,
RelWithDebInfo like the repository's default); later runs only check
that the build is current. The runner's last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are per-layer and the spans are written to
.bench_out/traces/<workload>-seed<N>.json.

Every run, passed, failed or interrupted, stops and reaps every process
it started (the runner and any fa_served) and removes its scratch
directory under .bench_out.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("repro_batch", "serve_read", "feed_churn")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


class Interrupted(Exception):
    pass


def on_signal(signum, _frame):
    raise Interrupted("signal %d" % signum)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no fivealarms sources at %s" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "fa_perfbench",
           "fa_served", "fa_perfbench_selftest"]
    return subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) == 0


def served_binary():
    return os.path.join(BUILD, "fivealarms", "src", "net", "fa_served")


def reap_all(group):
    """Kills the runner's process group and reaps every child left."""
    if group is not None:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def parse_result(line, trace):
    """Checks the runner's result line against BENCHMARK.json: the four
    keys, and every metric of the mode (per-layer when traced) with its
    unit, and no other."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError("%s is not a number" % name)
    if got != expected:
        raise ValueError("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items())))
    return result


def run(args):
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    scratch = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(BUILD, "fa_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--served", served_binary()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            OUT, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("runner exceeded %.0f s" % RUN_TIMEOUT_S)
            return 1
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(out)
            log("runner failed with code %d" % proc.returncode)
            return 1
        try:
            parse_result(lines[-1], args.trace)
        except (ValueError, KeyError) as e:
            sys.stderr.write(out)
            log("runner printed no result: %s" % e)
            return 1
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    finally:
        reap_all(proc.pid if proc is not None else None)
        shutil.rmtree(scratch, ignore_errors=True)


def selftest():
    return subprocess.call([os.path.join(BUILD, "fa_perfbench_selftest")],
                           cwd=ROOT)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, on_signal)
    # Orphans (an fa_served whose runner died) re-parent here, so the
    # final reap collects them too.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass
    try:
        if not build():
            log("build failed")
            return 2
        return selftest() if args.selftest else run(args)
    except Interrupted as e:
        log("interrupted (%s)" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
