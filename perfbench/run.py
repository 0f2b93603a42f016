#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune (build cache off, so nothing is written outside the checkout),
runs the workload in a scratch directory that is removed afterwards,
checks that the result carries exactly the metrics BENCHMARK.json
lists, and prints the program's report with the JSON result as the
last line.  Exits with status 2, printing no result, when the sources
are missing, the build fails, the run fails or times out, or the
result does not match BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_env():
    """The environment for dune: the build cache off, and the OCaml
    toolchain on PATH even when the caller's PATH lacks it."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not found:
            fail("dune not found")
        env["PATH"] = os.path.dirname(found[0]) + os.pathsep + env.get("PATH", "")
    return env


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its child and removes its scratch
    # directory: SystemExit unwinds through the finally clauses below.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("no sources to build here (missing %s)" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=dune_env(),
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    work = ".perfbench-work-%d" % os.getpid()
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--dir", work,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("run failed with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("the last line of the run is not a JSON result")
    check_result(result, spec, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
