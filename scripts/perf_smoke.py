#!/usr/bin/env python3
"""perf_smoke: CI performance gates over bench_engine_micro JSON output.

Two modes, both gating on a *geometric mean* of per-benchmark
items_per_second ratios (single micro-benchmarks are noisy in shared CI
runners; individual outliers are still printed for triage):

* Overhead budget (DESIGN.md §13). Compares two result files — one
  from a default build of the base commit, one from a default build of
  the change — and fails if the change falls more than the budget below
  the base, whether the cost comes from telemetry or anything else:

      perf_smoke.py --base base.json --change change.json [--budget 0.03]

* Columnar ingestion floor (DESIGN.md §14). Reads ONE result file and
  pairs every "<name>Columns..." benchmark with its scalar "<name>..."
  twin (BM_RawPushTumblingColumns vs BM_RawPushTumbling, argument
  suffixes matched exactly), failing if the columnar/scalar geomean
  speedup drops below the floor:

      perf_smoke.py --columnar results.json [--min-ratio 1.15]

* Shape check. Validates that each FILE is a benchmark result with a
  non-empty "benchmarks" array whose entries carry positive
  items_per_second values — the gate CI's bench smoke runs over
  bench_adaptive.json so a silently-empty artifact can never pass:

      perf_smoke.py --check FILE [FILE ...]

Exit status: 0 within budget/floor, 1 over it, 2 usage/parse error —
including missing, empty, or rate-less "benchmarks" entries, which fail
with a named file and reason rather than a traceback.
"""

import argparse
import json
import math
import sys


def load_items_per_second(path):
    """Benchmark name -> items_per_second. With repetitions, prefers the
    *_mean aggregate over raw iterations. Exits 2 with a named reason on
    any malformed input — a truncated or empty result file must fail the
    gate loudly, not sail through with zero rows."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print("perf_smoke: cannot read %s: %s" % (path, err))
        sys.exit(2)
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        print("perf_smoke: %s has no 'benchmarks' key — not a benchmark "
              "result file" % path)
        sys.exit(2)
    benchmarks = doc["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        print("perf_smoke: %s has an empty 'benchmarks' array — the "
              "benchmark produced no results" % path)
        sys.exit(2)
    rates = {}
    aggregates = {}
    for bench in benchmarks:
        if not isinstance(bench, dict):
            continue
        name = bench.get("name", "")
        rate = bench.get("items_per_second")
        if not isinstance(rate, (int, float)) or rate <= 0:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "mean":
                aggregates[bench.get("run_name", name)] = rate
        else:
            rates.setdefault(name, rate)
    rates.update(aggregates)
    if not rates:
        print("perf_smoke: no entry in %s carries a positive "
              "items_per_second — nothing to gate on" % path)
        sys.exit(2)
    return rates


def columnar_pairs(rates):
    """(scalar_name, columnar_name) pairs: "BM_XColumns/arg" <-> "BM_X/arg".

    The base benchmark name is everything before the first '/', so
    argument suffixes must match exactly — BM_KeyedAggregationColumns/16
    pairs with BM_KeyedAggregation/16 only.
    """
    pairs = []
    for name in sorted(rates):
        base, sep, args = name.partition("/")
        if not base.endswith("Columns"):
            continue
        scalar = base[: -len("Columns")] + sep + args
        if scalar in rates:
            pairs.append((scalar, name))
    return pairs


def gate(rows, count_label, geomean_floor, fail_message):
    """Prints a ratio table and applies the geomean floor. `rows` is a
    list of (label, denominator_rate, numerator_rate)."""
    if not rows:
        print("perf_smoke: no %s to gate on" % count_label)
        return 2
    log_sum = 0.0
    for _, denom, num in rows:
        ratio = num / denom if denom > 0 else 1.0
        log_sum += math.log(ratio)
    geomean = math.exp(log_sum / len(rows))
    print("geomean ratio over %d %s: %.4fx (floor %.2fx)"
          % (len(rows), count_label, geomean, geomean_floor))
    if geomean < geomean_floor:
        print("perf_smoke: FAIL — %s" % fail_message)
        return 1
    print("perf_smoke: OK")
    return 0


def run_overhead(opts):
    base = load_items_per_second(opts.base_path)
    change = load_items_per_second(opts.change_path)
    shared = sorted(set(base) & set(change))
    if not shared:
        print("perf_smoke: no common benchmarks between %s and %s"
              % (opts.base_path, opts.change_path))
        return 2

    print("%-44s %14s %14s %8s" % ("benchmark", "base items/s",
                                   "change items/s", "ratio"))
    rows = []
    for name in shared:
        ratio = change[name] / base[name] if base[name] > 0 else 1.0
        flag = "  <-- slow" if ratio < 1.0 - opts.budget else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (name, base[name], change[name], ratio, flag))
        rows.append((name, base[name], change[name]))
    return gate(rows, "benchmarks", 1.0 - opts.budget,
                "the change costs more than the %.0f%% budget against "
                "the base" % (opts.budget * 100))


def run_columnar(opts):
    rates = load_items_per_second(opts.columnar_path)
    pairs = columnar_pairs(rates)
    if not pairs:
        print("perf_smoke: no scalar/columnar benchmark pairs in %s"
              % opts.columnar_path)
        return 2

    print("%-44s %14s %14s %8s" % ("benchmark pair", "scalar items/s",
                                   "columnar it/s", "ratio"))
    rows = []
    for scalar, columnar in pairs:
        ratio = rates[columnar] / rates[scalar] if rates[scalar] > 0 else 1.0
        flag = "  <-- slow" if ratio < opts.min_ratio else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (scalar, rates[scalar], rates[columnar], ratio, flag))
        rows.append((scalar, rates[scalar], rates[columnar]))
    return gate(rows, "pairs", opts.min_ratio,
                "columnar ingestion speedup fell below the %.2fx floor"
                % opts.min_ratio)


def run_check(paths):
    """Shape gate: every file must load as a benchmark result with at
    least one positive items_per_second entry (load_items_per_second
    exits 2 otherwise). Prints the rates it found for the CI log."""
    for path in paths:
        rates = load_items_per_second(path)
        for name in sorted(rates):
            print("%-44s %14.0f items/s" % (name, rates[name]))
        print("perf_smoke: %s OK (%d benchmarks)" % (path, len(rates)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", dest="base_path",
                        help="benchmark json from the base commit's build")
    parser.add_argument("--change", dest="change_path",
                        help="benchmark json from the change's build")
    parser.add_argument("--budget", type=float, default=0.03,
                        help="allowed fractional slowdown (default 0.03)")
    parser.add_argument("--columnar", dest="columnar_path",
                        help="benchmark json holding scalar and *Columns "
                             "twins; gates columnar/scalar speedup")
    parser.add_argument("--min-ratio", type=float, default=1.15,
                        help="columnar geomean speedup floor (default 1.15)")
    parser.add_argument("--check", dest="check_paths", nargs="+",
                        metavar="FILE",
                        help="validate benchmark result files: each needs "
                             "a non-empty 'benchmarks' array with positive "
                             "items_per_second entries")
    opts = parser.parse_args(argv)

    modes = [bool(opts.check_paths), bool(opts.columnar_path),
             bool(opts.base_path or opts.change_path)]
    if sum(modes) > 1:
        print("perf_smoke: --check, --columnar, and --base/--change are "
              "mutually exclusive")
        return 2
    if opts.check_paths:
        return run_check(opts.check_paths)
    if opts.columnar_path:
        return run_columnar(opts)
    if not opts.base_path or not opts.change_path:
        print("perf_smoke: need --check FILE..., --columnar FILE, or both "
              "--base and --change")
        return 2
    return run_overhead(opts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
