#!/usr/bin/env python3
"""End-to-end benchmark of the quecc engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seconds S]

Run from the root of a checkout. The first run builds qbench (an
optimized build of src/ plus perfbench/src/) under $CARGO_TARGET_DIR
(default .bench_build); later runs reuse the build. qbench prints every
metric by name and unit and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the run's spans
to <build dir>/traces/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build qbench; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "qbench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_root(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        r = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", work,
             "--trace-dir", os.path.join(build_root(), "traces"),
             "--git-sha", git_sha()],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return r.returncode, r.stdout.splitlines()


def parse_result(line):
    res = json.loads(line)
    if set(res) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(res))
    return res


def traced_e2e(lines):
    """The traced run's own end-to-end numbers ("traced <name> <value> ...")."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "traced":
            out[parts[1]] = float(parts[2])
    return out


def self_test(binary, seconds):
    """Pins the percentile helper, then runs every workload untraced and
    traced twice on one seed. Checks that the output parses, names exactly
    the metrics of BENCHMARK.json and passes the correctness gate, and that
    the deterministic counts repeat exactly across the traced runs. Prints
    the tracing overhead: traced minus untraced end-to-end numbers."""
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        untraced, traced, counts = {}, {}, []
        for trace in (0, 1, 1):
            code, lines = run_once(binary, name, 7, seconds, trace)
            problem = None
            try:
                res = parse_result(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if code != 0:
                    problem = "exit code %d" % code
                elif got != want[trace]:
                    problem = "metrics differ from BENCHMARK.json: %s" % (
                        sorted(set(got) ^ set(want[trace])) or "units")
                elif not res["correct"] or res["failed"] != 0:
                    problem = "correctness gate failed"
                elif trace == 0:
                    untraced = {k: v["value"]
                                for k, v in res["metrics"].items()}
                elif not traced:
                    traced = traced_e2e(lines)
            except (ValueError, IndexError, KeyError, TypeError) as e:
                problem = "unparsable output: %s" % e
            if trace == 1:
                counts.append([l for l in lines
                               if l.startswith("deterministic ")])
            print("%-18s trace=%d %s" % (name, trace, problem or "ok"))
            failures += problem is not None
        if not counts[0] or counts[0] != counts[1]:
            print("%-18s deterministic counts differ:\n  %s\n  %s" % (
                name, counts[0], counts[1]))
            failures += 1
        else:
            print("%-18s deterministic counts repeat: %s" % (
                name, "; ".join(l.split(" ", 1)[1] for l in counts[0])))
        if untraced and traced:
            print("%-18s trace overhead (traced - untraced): %s" % (
                name, ", ".join("%s %+.4g" % (k, traced[k] - v)
                                for k, v in untraced.items()
                                if k in traced)))
    print("self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary, args.seconds)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if code != 0 or not lines:
        print("perfbench: qbench exited with %d" % code, file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)
        return 1
    try:
        parse_result(lines[-1])
    except ValueError as e:
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
