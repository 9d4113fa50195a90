#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Builds bench_e2e against the library in this checkout, starts one process
per workload, and checks every result against BENCHMARK.json.

  run.py [--seed N] [--seconds S] [--runs N] [--out FILE]
      every workload; prints a `workload metric value unit samples` table
      and appends one JSON object per suite run to FILE
  run.py --trace-dir DIR [...]
      the traced run instead: per-layer metrics, DIR/trace_<workload>.json
  run.py --workload W --seed N --seconds S --trace 0|1
      one workload; the last line of stdout is the result object
      {"correct", "attempted", "failed", "metrics"}
  run.py --smoke
      every workload at ~1% size, untraced and traced (schema gate)
  run.py --compare BASE.jsonl CHANGE.jsonl
      labels each (workload, metric) regressed / improved / unchanged /
      unresolved from two sets of --runs output

Exits non-zero when a correctness gate fails, a metric BENCHMARK.json
lists is missing, unitless or non-finite, or (--compare) one regressed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.01


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


WORKLOADS, END_TO_END, PER_LAYER = load_spec()


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds bench_e2e; build output goes to stderr
    so that stdout stays machine-readable."""
    if not (ROOT / "src" / "session" / "session.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "bench_e2e"


def run_workload(binary, build_dir, workload, seed, seconds, scale=1.0,
                 trace_dir=None, inject_fault=False):
    """One bench_e2e process; returns its result object."""
    scratch = build_dir / f"scratch-{os.getpid()}-{workload}"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}",
           f"--scratch-dir={scratch}"]
    if trace_dir is not None:
        cmd.append(f"--trace-dir={trace_dir}")
    if inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: bench_e2e exited {proc.returncode} without a "
             "result", 1)


def problems(result, names):
    """Listed metrics that are missing, unitless or non-finite."""
    found = []
    for name in names:
        metric = result["metrics"].get(name)
        if metric is None:
            found.append(f"{result['workload']}: {name} missing")
        elif not metric.get("unit"):
            found.append(f"{result['workload']}: {name} has no unit")
        elif not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            found.append(f"{result['workload']}: {name} is not finite")
    return found


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def single(args, binary):
    """The one-workload form: the compact result object on the last line."""
    traced = args.trace == 1
    trace_dir = None
    if traced:
        trace_dir = args.trace_dir or args.build_dir / "traces"
    result = run_workload(binary, args.build_dir, args.workload, args.seed,
                          args.seconds, trace_dir=trace_dir,
                          inject_fault=args.inject_fault)
    names = PER_LAYER if traced else END_TO_END
    issues = problems(result, names)
    for issue in issues:
        print(issue, file=sys.stderr)
    correct = result["correct"] and not issues
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"] + len(issues),
        "failed": result["failed"] + len(issues),
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]}
                    for name in names if name in result["metrics"]},
    }))
    return 0 if correct else 1


def suite(args, binary, seed, scale, trace_dir, out_file):
    """Every workload once; returns the number of failures."""
    names = PER_LAYER if trace_dir is not None else END_TO_END
    record = {"context": {"git_commit": git_commit(), "seed": seed,
                          "seconds": args.seconds, "scale": scale,
                          "traced": trace_dir is not None},
              "workloads": {}}
    failures = 0
    print(f"{'workload':18} {'metric':30} {'value':>14} {'unit':12} samples")
    for workload in WORKLOADS:
        result = run_workload(binary, args.build_dir, workload, seed,
                              args.seconds, scale, trace_dir,
                              args.inject_fault)
        record["workloads"][workload] = result
        for key in ("nproc", "compiler", "build_type", "fw_telemetry"):
            record["context"][key] = result["context"][key]
        for name in names:
            metric = result["metrics"].get(name)
            if metric is not None:
                print(f"{workload:18} {name:30} {metric['value']:14.6g} "
                      f"{metric['unit']:12} {metric['samples']}")
        issues = problems(result, names)
        if not result["correct"]:
            issues.append(f"{workload}: {result['failed']} of "
                          f"{result['attempted']} operations failed")
        for issue in issues:
            print(issue, file=sys.stderr)
        failures += len(issues)
    if out_file is not None:
        out_file.write(json.dumps(record) + "\n")
        out_file.flush()
    return failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def label(metric, base, change):
    """Labels one (workload, metric) pair from its base and change runs,
    paired by seed (see README.md, Comparing two commits)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    better = [(c < b) if lower else (c > b) for b, c in zip(base, change)]
    wins = sum(better)
    all_better = (max(change) < min(base)) if lower else \
        (min(change) > max(base))
    if worse > bound:
        return "regressed"
    if len(base) >= 10 and wins >= 0.9 * len(base) and abs(cm - bm) > b3 - b1:
        return "improved"
    if (b3 - b1) / bm > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_path, change_path):
    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                runs[record["context"]["seed"]] = record
        return runs

    base, change = load(base_path), load(change_path)
    seeds = sorted(set(base) & set(change))
    if len(seeds) < 2:
        fail("need at least two runs per side with matching seeds")
    if len(seeds) < 10:
        print(f"note: {len(seeds)} paired runs; 'improved' needs at least 10",
              file=sys.stderr)
    regressed = 0
    print(f"{'workload':18} {'metric':16} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  label")
    for workload in WORKLOADS:
        for name, metric in END_TO_END.items():
            try:
                b = [base[s]["workloads"][workload]["metrics"][name]["value"]
                     for s in seeds]
                c = [change[s]["workloads"][workload]["metrics"][name]["value"]
                     for s in seeds]
            except KeyError:
                print(f"{workload:18} {name:16} missing")
                regressed += 1
                continue
            verdict = label(metric, b, c)
            regressed += verdict == "regressed"
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:18} {name:16} "
                  f"{bq[1]:12.5g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{(cq[1] - bq[1]) / bq[1]:+8.2%}  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / ".bench_build" / "e2e")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one gate result (the gates must fail)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    args.build_dir = args.build_dir.resolve()
    binary = build(args.build_dir)
    if args.workload:
        return single(args, binary)

    if args.smoke:
        start = time.monotonic()
        args.seconds = 1
        failures = suite(args, binary, args.seed, SMOKE_SCALE, None, None)
        failures += suite(args, binary, args.seed, SMOKE_SCALE,
                          args.build_dir / "smoke-traces", None)
        status = "OK" if failures == 0 else f"FAILED ({failures})"
        print(f"smoke {status} in {time.monotonic() - start:.1f} s")
        return 1 if failures else 0

    trace_dir = args.trace_dir.resolve() if args.trace_dir else None
    out_file = open(args.out, "a") if args.out else None
    failures = 0
    try:
        for run in range(args.runs):
            failures += suite(args, binary, args.seed + run, 1.0, trace_dir,
                              out_file)
    finally:
        if out_file is not None:
            out_file.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
