// Throughput scaling of the sharded runtime: one StreamSession with a
// fixed per-device dashboard query set, swept over --shards (default
// 1,2,4,8). Each shard count runs the identical keyed stream; the speedup
// column is relative to the first swept shard count (put 1 first for a
// single-threaded baseline). Every run's result multiset is fingerprinted
// (bench::ResultFingerprint) and must match the first run's exactly, so a
// scaling win can never come from dropped or duplicated work. Under
// --batch=N an untimed scalar-Push run at the first shard count is the
// reference instead, so the columnar path is checked against per-event
// ingestion too. Scale with --events/--keys or FW_EVENTS_1M; expect
// ~linear scaling only when the host has at least as many free cores as
// shards.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/clock.h"

#include "bench/bench_util.h"
#include "session/session.h"

namespace fw {
namespace {

struct RunOutcome {
  double seconds = 0.0;
  uint32_t effective_shards = 0;
  bench::ResultFingerprint totals;
  telemetry::MetricsSnapshot metrics;
};

// One session over the stream at `shards`: scalar Push when `chunks` is
// empty, else PushColumns. Exits on any error.
RunOutcome RunOnce(const bench::BenchArgs& args, uint32_t shards,
                   const std::vector<Event>& events,
                   const std::vector<EventColumns>& chunks) {
  StreamSession::Options options;
  options.num_keys = args.keys;
  options.num_shards = shards;
  StreamSession session(options);

  RunOutcome outcome;
  StreamSession::ResultCallback fold = [&outcome](const WindowResult& r) {
    outcome.totals.Fold(r);
  };
  auto add = [&](const QueryBuilder& query) {
    Result<QueryId> id = session.AddQuery(query, fold);
    if (!id.ok()) {
      std::fprintf(stderr, "AddQuery: %s\n", id.status().ToString().c_str());
      std::exit(1);
    }
  };
  QueryBuilder dash =
      Query().Aggregate(args.agg, "v").From("fleet").PerKey("device");
  add(QueryBuilder(dash).Tumbling(20).Hopping(60, 20));
  add(QueryBuilder(dash).Tumbling(40));
  add(QueryBuilder(dash).Tumbling(120));

  MonotonicTimer timer;
  Status status = bench::IngestStream(session, events, chunks);
  if (status.ok()) status = session.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  outcome.seconds = timer.ElapsedSeconds();
  outcome.effective_shards = session.Stats().num_shards;
  if (!args.metrics_json.empty()) outcome.metrics = session.Metrics().telemetry;
  return outcome;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, EventCountFromEnv("FW_EVENTS_1M", 300'000));
  std::vector<Event> events =
      GenerateSyntheticStream(args.events, args.keys, kSyntheticSeed);
  // Columnar ingestion (--batch=N): transpose once, outside every timed
  // region, so all swept shard counts ingest the same chunks.
  const std::vector<EventColumns> chunks =
      args.batch == 0 ? std::vector<EventColumns>{}
                      : SplitIntoColumns(events, args.batch);

  std::printf(
      "shard scaling  [%zu events, %u keys, %s dashboards "
      "T(20)+H(60,20)+T(40)+T(120), batch %zu]\n",
      events.size(), args.keys, args.agg.c_str(), args.batch);
  std::printf("%8s %10s %14s %9s %12s %18s\n", "shards", "effective",
              "events/s", "speedup", "results", "fingerprint");

  bool have_reference = false;
  bench::ResultFingerprint reference;
  if (args.batch != 0) {
    reference = RunOnce(args, args.shards.front(), events, {}).totals;
    have_reference = true;
  }
  double base_throughput = 0.0;
  telemetry::MetricsSnapshot last_metrics;
  for (uint32_t shards : args.shards) {
    RunOutcome outcome = RunOnce(args, shards, events, chunks);
    const double throughput =
        outcome.seconds > 0.0
            ? static_cast<double>(events.size()) / outcome.seconds
            : 0.0;
    if (base_throughput == 0.0) base_throughput = throughput;
    if (!have_reference) {
      reference = outcome.totals;
      have_reference = true;
    }
    if (!outcome.totals.Matches(reference)) {
      std::fprintf(stderr,
                   "result mismatch at %u shards: %" PRIu64
                   " results, fingerprint %016" PRIx64 " vs %" PRIu64
                   ", %016" PRIx64 " (%s reference)\n",
                   shards, outcome.totals.results, outcome.totals.fingerprint,
                   reference.results, reference.fingerprint,
                   args.batch != 0 ? "scalar-Push" : "first-run");
      return 1;
    }
    std::printf("%8u %10u %14.0f %8.2fx %12" PRIu64 " %18.16" PRIx64 "\n",
                shards, outcome.effective_shards, throughput,
                base_throughput > 0.0 ? throughput / base_throughput : 0.0,
                outcome.totals.results, outcome.totals.fingerprint);
    last_metrics = std::move(outcome.metrics);
  }
  // The highest swept shard count's telemetry lands in the artifact —
  // the run whose hand-off latency and ring occupancy CI cares about.
  bench::WriteMetricsJson(args.metrics_json, last_metrics);
  return 0;
}

}  // namespace
}  // namespace fw

int main(int argc, char** argv) { return fw::Run(argc, argv); }
