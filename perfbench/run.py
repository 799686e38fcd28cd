#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first form builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench, runs one workload and passes the program's output
through: the last line of standard output is the result as one JSON
object. Build output goes to standard error. Span dumps of traced runs go
to .bench_out/.

The second form is the benchmark's own test: a tiny-scale pass of every
workload in both modes, a check that every metric BENCHMARK.json names is
printed with its unit, and a check that a corrupted shadow entry makes the
oracle fail the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; False (with a message) on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("error: no library sources at %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("error: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return True
        if attempt == 0:
            # A build tree left by another checkout or compiler: start over.
            log("build failed; reconfiguring from scratch")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return False


def run_bench(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout, stderr)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, "--out-dir", OUT_DIR] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return 124, "", "timed out after %d s" % timeout
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        log(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, err = run_bench(
                ["--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", trace, "--scale", "tiny"])
            result = last_json(out)
            what = "%s --trace %s" % (workload, trace)
            check(code == 0 and result is not None,
                  what + " exits 0 with a JSON result" +
                  ("" if code == 0 else " (exit %d: %s)" % (code, err.strip()[-300:])))
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  what + " reports correct, attempted >= 1 and no failures")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, what + " prints exactly the %s metrics with "
                  "their units%s" % (key, "" if got == want else
                                     ": missing %s, extra %s, units %s" % (
                                         sorted(set(want) - set(got)),
                                         sorted(set(got) - set(want)),
                                         sorted(k for k in want if k in got
                                                and want[k] != got[k]))))
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  what + " gives every metric a numeric value")
        # The oracle must catch a shadow entry that disagrees with the FTL.
        code, out, err = run_bench(
            ["--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", "0", "--scale", "tiny", "--corrupt-shadow"])
        check(code == 1 and "WRONG DATA" in err and last_json(out) is None,
              workload + " with one corrupted shadow entry fails the run "
              "(exit %d)" % code)

    log("selftest: %s" % ("PASS" if not failures else
                          "FAIL (%d checks)" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        log("error: benchmark build failed")
        return 1
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, out, err = run_bench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stderr.write(err)
    if code != 0:
        # A failed run prints no result line.
        sys.stdout.write("\n".join(l for l in out.splitlines()
                                   if not l.startswith("{")) + "\n")
        log("error: benchmark exited with code %d" % code)
        return code if code > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
