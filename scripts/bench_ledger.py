#!/usr/bin/env python3
"""Performance ledger: one committed BENCH_<pr>.json per change.

Runs the repo benchmark ten times untraced (`bench/e2e/run.py --runs 10
--seed 1 --seconds 15`, seeds 1..10) and once traced (`run.py --seed 1
--trace-dir D`), or reads the JSONL such runs already wrote, and writes
BENCH_<pr>.json. Per workload it holds the median, quartiles and IQR of
every end-to-end metric BENCHMARK.json lists, the traced run's per-layer
metrics, and the share of operations that failed; a context block records
the commit, nproc, compiler and build type, and src_lines: the ROADMAP's
design-quality measure `cat src/*/*.h src/*/*.cc | wc -l`, taken over this
checkout (the measured tree), so the line count sits beside the perf
numbers.

  bench_ledger.py --pr N
      run the benchmark of this checkout, then write BENCH_N.json; a tree
      with uncommitted changes is recorded as <HEAD>-dirty (the change
      measured on top of its parent before it is committed)
  bench_ledger.py --pr N --untraced U.jsonl --traced T.jsonl [--commit C]
      summarize runs already made (records of other seeds are skipped);
      the commit is the one the runs recorded unless --commit names it

Exits 1 when a run failed a correctness gate or a metric is missing.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUN_PY = REPO / "bench" / "e2e" / "run.py"
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/e2e/
sys.path.insert(0, str(RUN_PY.parent))
import run  # noqa: E402  (bench/e2e/run.py: spec, quartiles, git_commit)

SEEDS = range(1, 11)
SECONDS = 15
TRACED_SEED = 1


def run_bench(args, out):
    """One run.py invocation appending its suite records to `out`."""
    cmd = [sys.executable, str(RUN_PY), *args, "--out", str(out)]
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, cwd=REPO, stdout=sys.stderr).returncode


def checkout_commit():
    """HEAD, suffixed -dirty when the tree differs from it."""
    head = run.git_commit()
    status = subprocess.run(["git", "-C", str(REPO), "status", "--porcelain"],
                            capture_output=True, text=True)
    return head + "-dirty" if status.stdout.strip() else head


def src_lines():
    """`cat src/*/*.h src/*/*.cc | wc -l` over this checkout."""
    files = sorted(REPO.glob("src/*/*.h")) + sorted(REPO.glob("src/*/*.cc"))
    return sum(f.read_bytes().count(b"\n") for f in files)


def load(path, traced, seeds):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            context = record["context"]
            if context["traced"] == traced and context["seed"] in seeds:
                records.append(record)
    return records


def summarize(untraced, traced, commit):
    first = untraced[0]["context"]
    commits = {r["context"]["git_commit"] for r in untraced + traced}
    if commit is None:
        if len(commits) != 1:
            raise SystemExit(f"bench_ledger.py: runs disagree on the commit "
                             f"({sorted(commits)}); pass --commit")
        commit = commits.pop()
    ledger = {
        "context": {
            "git_commit": commit,
            "nproc": first["nproc"],
            "compiler": first["compiler"],
            "build_type": first["build_type"],
            "src_lines": src_lines(),
            "seeds": sorted(r["context"]["seed"] for r in untraced),
            "seconds": first["seconds"],
            "traced_seeds": sorted(r["context"]["seed"] for r in traced),
        },
        "workloads": {},
    }
    missing = 0
    for workload in run.WORKLOADS:
        results = [r["workloads"][workload] for r in untraced + traced]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"attempted": attempted, "failed": failed,
                 "failed_share": failed / attempted if attempted else 0.0,
                 "end_to_end": {}, "per_layer": {}}
        for name, metric in run.END_TO_END.items():
            values = [r["workloads"][workload]["metrics"][name]["value"]
                      for r in untraced
                      if name in r["workloads"][workload]["metrics"]]
            if len(values) < len(untraced):
                missing += 1
            if not values:
                continue
            q1, median, q3 = run.quartiles(values)
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "iqr": q3 - q1, "runs": len(values)}
        for name, metric in run.PER_LAYER.items():
            for record in traced:
                found = record["workloads"][workload]["metrics"].get(name)
                if found is None:
                    missing += 1
                    continue
                entry["per_layer"].setdefault(
                    name, {"unit": metric["unit"], "values": []})
                entry["per_layer"][name]["values"].append(found["value"])
        ledger["workloads"][workload] = entry
    return ledger, missing


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--untraced", type=Path,
                        help="JSONL of untraced runs to read instead")
    parser.add_argument("--traced", type=Path,
                        help="JSONL of traced runs to read instead")
    parser.add_argument("--commit", help="commit to record (default: this "
                        "checkout's when the script runs the benchmark, "
                        "else the one the runs recorded)")
    args = parser.parse_args()

    work = REPO / ".bench_build" / "ledger"
    status = 0
    if args.untraced is None or args.traced is None:
        work.mkdir(parents=True, exist_ok=True)
        args.commit = args.commit or checkout_commit()
    untraced_path = args.untraced
    if untraced_path is None:
        untraced_path = work / f"untraced_{args.pr}.jsonl"
        untraced_path.unlink(missing_ok=True)
        status |= run_bench(["--runs", str(len(SEEDS)), "--seed",
                             str(SEEDS[0]), "--seconds", str(SECONDS)],
                            untraced_path)
    traced_path = args.traced
    if traced_path is None:
        traced_path = work / f"traced_{args.pr}.jsonl"
        traced_path.unlink(missing_ok=True)
        status |= run_bench(["--seed", str(TRACED_SEED), "--trace-dir",
                             str(work / f"traces_{args.pr}")], traced_path)

    untraced = load(untraced_path, False, set(SEEDS))
    traced = load(traced_path, True, {TRACED_SEED})
    if not untraced or not traced:
        raise SystemExit("bench_ledger.py: no untraced or no traced run "
                         "of the requested seeds")
    ledger, missing = summarize(untraced, traced, args.commit)
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, **ledger}, indent=1) + "\n")
    print(f"wrote {out}: {len(untraced)} untraced and {len(traced)} traced "
          f"runs", file=sys.stderr)
    if missing:
        print(f"bench_ledger.py: {missing} metric readings missing",
              file=sys.stderr)
    return 1 if status or missing else 0


if __name__ == "__main__":
    sys.exit(main())
