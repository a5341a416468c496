#!/usr/bin/env python3
"""FAROS triage benchmark: build it from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload triage_corpus --seed 1 --seconds 36 --trace 0

The benchmark binary (perfbench/*.cpp) and the FAROS libraries it links are
built in Release into .bench_build/ on first use and rebuilt incrementally
after. Before measuring, the binary's self-test runs. Standard output ends
with two JSON lines: the full record, stamped with host, build and source
identity, then the result object {"correct", "attempted", "failed",
"metrics"}.
Build logs and diagnostics go to standard error.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "faros_perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("triage_corpus", "injection_dift", "analyst_fanout")
# Everything the measured program is built from or reads at run time.
SOURCES = ("CMakeLists.txt", "src", "policies", "perfbench")
RUN_LIMIT_S = 170  # a run must exit within 180 s, set-up included
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout=None):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{cmd[0]}: {e}")
    if rc != 0:
        fail(f"{' '.join(cmd)} exited with {rc}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no FAROS sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    call(["cmake", "--build", BUILD, "--target", "faros_perfbench",
          "-j", jobs])


def source_digest():
    """sha256 over the path and bytes of every source file, in path order."""
    files = []
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
            continue
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs
                             if not x.startswith((".", "__pycache__")))
            for name in names:
                files.append(os.path.relpath(os.path.join(d, name), ROOT))
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    call([BINARY, "--self-test"], timeout=60)

    started = time.monotonic()
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", os.path.join(BUILD, "tmp")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_LIMIT_S} s")
    if out.returncode != 0:
        fail(f"faros_perfbench exited with {out.returncode}")
    lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        fail("faros_perfbench printed no result")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result line: {lines[-1]}")

    record["git_sha"] = git_sha()
    record["source_digest"] = source_digest()
    record["run_s"] = time.monotonic() - started
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
