#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the benchmark with CMake under .bench_build/ (or $CARGO_TARGET_DIR when
set); later calls only check that the build is up to date.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  The traced run writes its spans to
<build dir>/traces/<workload>-seed<N>.json.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spmm-repeat", "serve-mix", "simulate")
RUN_TIMEOUT_S = 175

USAGE = """usage: python3 perfbench/run.py --workload {spmm-repeat|serve-mix|simulate|all}
                              --seed N --seconds S --trace {0|1}
                              [--tiny] [--bad-checksum]
  --workload      which workload to measure; all runs the three in turn,
                  each in its own process, and prints every named figure
  --seed          workload seed (a non-negative integer); same seed, same inputs
  --seconds       length of the timed window (1 to 600)
  --trace         0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics
  --tiny          small inputs (the benchmark's own tests)
  --bad-checksum  corrupt one reference output (tests that checks fail)"""


def fail_usage(message=None):
    if message:
        print(f"run.py: {message}", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"tiny": False, "bad_checksum": False}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("-h", "--help"):
            fail_usage()
        if flag in ("--tiny", "--bad-checksum"):
            args[flag[2:].replace("-", "_")] = True
            i += 1
            continue
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail_usage(f"unknown option {flag!r}")
        if i + 1 >= len(argv):
            fail_usage(f"missing value for {flag}")
        args[flag[2:]] = argv[i + 1]
        i += 2
    for required in ("workload", "seed", "seconds", "trace"):
        if required not in args:
            fail_usage(f"--{required} is required")
    if args["workload"] not in WORKLOADS + ("all",):
        fail_usage(f"unknown workload {args['workload']!r}")
    if not args["seed"].isdigit():
        fail_usage("--seed takes a non-negative integer")
    try:
        seconds = float(args["seconds"])
    except ValueError:
        fail_usage("--seconds takes a number")
    if not 0 < seconds <= 600:
        fail_usage("--seconds must be in (0, 600]")
    if args["trace"] not in ("0", "1"):
        fail_usage("--trace takes 0 or 1")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then bring the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no HotTiles sources next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        sys.exit(3)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(3)
    return out / "perfbench"


def run_workload(binary, args, workload):
    """Run one workload in its own process; returns its exit status."""
    cmd = [str(binary), "--workload", workload, "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"]]
    if args["trace"] == "1":
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{workload}-seed{args['seed']}.json")]
    if args["tiny"]:
        cmd.append("--tiny")
    if args["bad_checksum"]:
        cmd.append("--bad-checksum")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 1


def main(argv):
    args = parse_args(argv)
    binary = build()
    if args["workload"] != "all":
        return run_workload(binary, args, args["workload"])
    # Every workload, each in its own process, so set-up time and peak
    # RSS stay per workload.
    return max(run_workload(binary, args, w) for w in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
