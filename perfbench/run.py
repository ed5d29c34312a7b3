#!/usr/bin/env python3
"""Builds the webtab benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload annotate|search --seed N \
        --seconds S --trace 0|1

The build (CMake, into .bench_build/perfbench) is incremental; after a
build the helper tests run once. The last stdout line of the benchmark
program, a JSON object {"correct", "attempted", "failed", "metrics"}, is
checked against BENCHMARK.json's metric names and units and printed as
this script's last stdout line; everything else goes to stderr. The exit
code is the program's, or nonzero when the checkout cannot be built or
the result is malformed (then no result is printed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 120
RUN_TIMEOUT_S = 175

_child = None


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(3)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the group.

    Returns (returncode, stdout text or None). Child stdout goes to our
    stderr unless captured.
    """
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        return 124, None
    finally:
        code = _child.returncode
        _child = None
    return code, out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no webtab sources (CMakeLists.txt, src/) in " + ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    return code == 0


def helper_tests_pass():
    """Runs the helper tests once per build of their binary."""
    test = os.path.join(BUILD, "perfbench_helpers_test")
    if not os.path.isfile(test):
        log("helper tests not built (no GTest); skipping them")
        return True
    stamp = test + ".passed"
    if (os.path.isfile(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(test)):
        return True
    code, _ = run([test, "--gtest_brief=1"], TEST_TIMEOUT_S)
    if code != 0:
        log("helper tests failed")
        return False
    with open(stamp, "w"):
        pass
    return True


def check_result(line, trace):
    """Returns an error string, or None when `line` is a well-formed result."""
    try:
        result = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (ValueError, OSError) as e:
        return "unreadable result or BENCHMARK.json: %s" % e
    if not isinstance(result, dict) or list(result) != [
            "correct", "attempted", "failed", "metrics"]:
        return "result keys differ from the contract"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metric set differs from BENCHMARK.json: missing %s extra %s" % (
            missing, extra)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["annotate", "search"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, _kill_child)
    signal.signal(signal.SIGINT, _kill_child)
    started = time.monotonic()
    if not build():
        log("build failed")
        return 2
    log("build ready in %.1f s" % (time.monotonic() - started))
    if not helper_tests_pass():
        return 2

    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    code, out = run([os.path.join(BUILD, "perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--work-dir", work_dir],
                    RUN_TIMEOUT_S, capture=True)
    lines = (out or "").strip().splitlines()
    if not lines:
        log("benchmark printed no result (exit %d)" % code)
        return code or 1
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        log(error)
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
