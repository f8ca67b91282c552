#!/usr/bin/env python3
"""Build and run the icsched benchmark.

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
repository's libraries and the icsbench driver (Release) under .bench_build/;
later runs only rebuild what changed. The last line of standard output is the
run's one-line JSON summary. Result, span and self-time files go to
.bench_build/results/.

--self-test runs every workload at tiny sizes, untraced and traced, checks
that each prints every metric named in BENCHMARK.json with its unit, and
checks that a corrupted output (one flipped response byte, one divergent sim
line) fails the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
EXE = BUILD / "icsbench"
WORKLOADS = ("sim_sweep", "sim_faults", "serve_hit", "serve_churn")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no icsched source tree at %s; cannot build the benchmark" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not any((BUILD / f).is_file() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "icsbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))


def run_bench(args, capture=False):
    cmd = [str(EXE)] + args
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            done = run_bench(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                              "--trace", str(trace), "--tiny"], capture=True)
            summary = last_json(done.stdout)
            if done.returncode != 0 or not summary or summary.get("correct") is not True:
                problems.append("%s: exit %d, stderr: %s" % (tag, done.returncode, done.stderr[-500:]))
                continue
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, expected %s" % (tag, sorted(got), sorted(expected[trace])))
            print("self-test %-24s ok (%d metrics)" % (tag, len(got)))
    for workload in ("sim_sweep", "serve_hit"):
        tag = "%s --corrupt" % workload
        done = run_bench(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                          "--trace", "0", "--tiny", "--corrupt"], capture=True)
        summary = last_json(done.stdout)
        if done.returncode == 0 or not summary or summary.get("correct") is not False \
                or summary.get("failed", 0) < 1:
            problems.append("%s: corrupted output was not caught (exit %d)" % (tag, done.returncode))
        else:
            print("self-test %-24s ok (caught, exit %d)" % (tag, done.returncode))
    for p in problems:
        print("self-test FAILED " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    return run_bench(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
