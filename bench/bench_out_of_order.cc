// Out-of-order ingestion cost: the same keyed dashboard query set as
// bench_shard_scaling, fed a stream with bounded disorder (--disorder
// positions of displacement) through StreamSession::Options::max_delay,
// swept over --max-delays and --shards. Every shard count first runs the
// *sorted* stream strictly (the max_delay=0 row, printed whether or not 0
// is listed) — the zero-overhead baseline every other row is compared
// against. A max_delay below the actual disorder sheds late events
// (counted in the "late" column); at or above it the result multiset must
// match the strict baseline's exactly. Every row's multiset is also
// fingerprinted (bench::ResultFingerprint) against the same max_delay at
// the first shard count — or, under --batch=N, against an untimed
// scalar-Push run — so shedding, sharding and columnar ingestion must all
// agree bit for bit, or the run aborts. Buffer peak bounds the memory
// cost of riding out the disorder.

#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

#include "common/clock.h"

#include "bench/bench_util.h"
#include "session/session.h"

namespace fw {
namespace {

struct RunOutcome {
  double seconds = 0.0;
  uint64_t late_events = 0;
  uint64_t buffer_peak = 0;
  bench::ResultFingerprint totals;
  telemetry::MetricsSnapshot metrics;
};

// One session over the stream at (`shards`, `max_delay`): scalar Push when
// `chunks` is empty, else PushColumns. Exits on any error.
RunOutcome RunOnce(const bench::BenchArgs& args, uint32_t shards,
                   TimeT max_delay, const std::vector<Event>& events,
                   const std::vector<EventColumns>& chunks) {
  StreamSession::Options options;
  options.num_keys = args.keys;
  options.num_shards = shards;
  options.max_delay = max_delay;
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
  QueryBuilder dash = Query().Max("v").From("fleet").PerKey("device");
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
  StreamSession::SessionStats stats = session.Stats();
  outcome.late_events = stats.late_events;
  outcome.buffer_peak = stats.reorder_buffer_peak;
  if (!args.metrics_json.empty()) outcome.metrics = session.Metrics().telemetry;
  return outcome;
}

// Prints a mismatch and returns false unless `got` equals `want`.
bool Matches(const bench::ResultFingerprint& got,
             const bench::ResultFingerprint& want, uint32_t shards,
             TimeT max_delay, const char* reference) {
  if (got.Matches(want)) return true;
  std::fprintf(stderr,
               "result mismatch at %u shards, max_delay %lld: %" PRIu64
               " results, fingerprint %016" PRIx64 " vs %" PRIu64
               ", %016" PRIx64 " (%s)\n",
               shards, static_cast<long long>(max_delay), got.results,
               got.fingerprint, want.results, want.fingerprint, reference);
  return false;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, EventCountFromEnv("FW_EVENTS_1M", 300'000));
  std::vector<Event> sorted =
      GenerateSyntheticStream(args.events, args.keys, kSyntheticSeed);
  std::vector<Event> shuffled =
      ApplyBoundedDisorder(sorted, args.disorder, kSyntheticSeed + 1);
  // Columnar ingestion (--batch=N): both streams pre-transposed outside
  // the timed regions.
  const std::vector<EventColumns> sorted_chunks =
      args.batch == 0 ? std::vector<EventColumns>{}
                      : SplitIntoColumns(sorted, args.batch);
  const std::vector<EventColumns> shuffled_chunks =
      args.batch == 0 ? std::vector<EventColumns>{}
                      : SplitIntoColumns(shuffled, args.batch);

  std::printf(
      "out-of-order ingestion  [%zu events, %u keys, disorder <= %zu, "
      "MAX dashboards T(20)+H(60,20)+T(40)+T(120), batch %zu]\n",
      sorted.size(), args.keys, args.disorder, args.batch);
  std::printf("%8s %11s %14s %9s %12s %12s %12s %18s\n", "shards",
              "max_delay", "events/s", "vs base", "late", "buf peak",
              "results", "fingerprint");

  // The strict sorted baseline always runs first so every disordered
  // row has something to compare against.
  std::vector<TimeT> delays = {0};
  for (TimeT max_delay : args.max_delays) {
    if (max_delay != 0) delays.push_back(max_delay);
  }
  // Per max_delay, the multiset every shard count must reproduce.
  std::map<TimeT, bench::ResultFingerprint> reference;
  const char* reference_name = "first shard count";
  if (args.batch != 0) {
    reference_name = "scalar-Push run";
    for (TimeT max_delay : delays) {
      reference[max_delay] =
          RunOnce(args, args.shards.front(), max_delay,
                  max_delay == 0 ? sorted : shuffled, {})
              .totals;
    }
  }

  telemetry::MetricsSnapshot last_metrics;
  for (uint32_t shards : args.shards) {
    double base_throughput = 0.0;
    for (TimeT max_delay : delays) {
      const std::vector<Event>& events = max_delay == 0 ? sorted : shuffled;
      const std::vector<EventColumns>& chunks =
          max_delay == 0 ? sorted_chunks : shuffled_chunks;
      RunOutcome outcome = RunOnce(args, shards, max_delay, events, chunks);
      const double throughput =
          outcome.seconds > 0.0
              ? static_cast<double>(events.size()) / outcome.seconds
              : 0.0;
      if (max_delay == 0) base_throughput = throughput;
      const bench::ResultFingerprint& want =
          reference.emplace(max_delay, outcome.totals).first->second;
      if (!Matches(outcome.totals, want, shards, max_delay, reference_name)) {
        return 1;
      }
      // No events were shed, so sharing the baseline's input (modulo
      // order) must reproduce its multiset exactly.
      if (max_delay != 0 && outcome.late_events == 0 &&
          !Matches(outcome.totals, reference.at(0), shards, max_delay,
                   "strict sorted baseline")) {
        return 1;
      }
      std::printf("%8u %11lld %14.0f %8.2fx %12" PRIu64 " %12" PRIu64
                  " %12" PRIu64 " %18.16" PRIx64 "\n",
                  shards, static_cast<long long>(max_delay), throughput,
                  base_throughput > 0.0 ? throughput / base_throughput : 0.0,
                  outcome.late_events, outcome.buffer_peak,
                  outcome.totals.results, outcome.totals.fingerprint);
      last_metrics = std::move(outcome.metrics);
    }
  }
  // The deepest swept (shards, max_delay) run's telemetry — the one
  // with real reorder-buffer pressure — lands in the artifact.
  bench::WriteMetricsJson(args.metrics_json, last_metrics);
  return 0;
}

}  // namespace
}  // namespace fw

int main(int argc, char** argv) { return fw::Run(argc, argv); }
