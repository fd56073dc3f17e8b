#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark program (perfbench/main.exe) is built from source with dune
into .bench_build/ and run as a child process. Its last line of standard
output is the result; this script adds the child's peak resident memory
(measured here, from outside the program) to the end-to-end metrics and
prints the line again as its own last line. Exit status: the child's, or
2 when the checkout has no source tree to build.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HERE = "perfbench"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    path = shutil.which("dune")
    if path is None:
        fail("dune not found on PATH")
    return path


def build(targets):
    for needed in ("dune-project", "lib", os.path.join(HERE, "dune")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a full checkout" % needed)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune(), "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet"] + ["./" + t for t in targets]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return [os.path.join(BUILD_DIR, "default", t) for t in targets]


def run_child(argv):
    """Run argv; return (stdout text, exit status, peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr)
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def selftest(main_exe, selftest_exe):
    ok = subprocess.run([selftest_exe]).returncode == 0
    listed = subprocess.run([main_exe, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.splitlines()
    catalogue = [json.loads(line) for line in listed]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for kind in ("end_to_end", "per_layer"):
        want = [{k: m[k] for k in ("name", "unit", "better")}
                for m in catalogue if m["kind"] == kind]
        got = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[kind]]
        if want != got:
            print("perfbench selftest FAILED: BENCHMARK.json %s differs from "
                  "main.exe --list-metrics" % kind, file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main():
    if "--selftest" in sys.argv[1:]:
        main_exe, selftest_exe = build([HERE + "/main.exe", HERE + "/selftest.exe"])
        sys.exit(selftest(main_exe, selftest_exe))
    (main_exe,) = build([HERE + "/main.exe"])
    out, status, rss_mb = run_child([main_exe] + sys.argv[1:])
    lines = out.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result", code=status or 1)
    result = json.loads(lines[-1])
    traced = any(a == "--trace" and b == "1" for a, b in zip(sys.argv, sys.argv[1:]))
    if not traced:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(status)


if __name__ == "__main__":
    main()
