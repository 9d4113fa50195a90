// Runtime-adaptive optimization on a drifting workload (DESIGN.md §15):
// a dense -> sparse -> dense synthetic stream (event-time rate η swings
// 8 -> 0.05 -> 8) is ingested twice through the Example-7-style
// multi-window query set — once with a static plan at fixed width, once
// with drift-triggered re-optimization plus the rate-driven auto-resize
// monitor. The adaptive run evicts the factor window in the sparse
// trough (and reinstates it in the recovery), scales down to inline
// mode and back out, and must still deliver the bitwise-identical
// result multiset (ResultFingerprint; MAX regroups exactly). The run
// FAILS if no drift replan fires, so CI's bench smoke doubles as a
// liveness check on the feedback loop.
//
// Both sessions pin the resize decision to the event-time throughput
// signal (occupancy thresholds neutralized): ring occupancy depends on
// host speed, and a host-dependent resize schedule would make the
// artifact — and the exactness comparison baseline — irreproducible.
//
// Output is google-benchmark-compatible JSON ({"benchmarks": [...]}
// with items_per_second), so scripts/perf_smoke.py --check gates its
// shape in CI. Scale with --events/--keys or FW_EVENTS_1M; the first
// --shards value is the starting (and static) width.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "session/session.h"

namespace fw {
namespace {

// 40% dense (η = 8), 20% sparse trough (η = 0.05, below the factor
// window's break-even), 40% dense recovery. Values cycle through a
// small integer range so any aggregate stays exactly representable.
std::vector<Event> DriftingStream(size_t total, uint32_t keys) {
  std::vector<Event> events;
  events.reserve(total);
  const size_t dense = total * 2 / 5;
  const size_t trough = total / 5;
  TimeT now = 0;
  auto append = [&](size_t count, size_t per_unit, TimeT stride) {
    for (size_t i = 0; i < count; ++i) {
      Event e;
      e.timestamp = per_unit > 0 ? now + static_cast<TimeT>(i / per_unit)
                                 : now + static_cast<TimeT>(i) * stride;
      e.key = static_cast<uint32_t>(events.size() % keys);
      e.value = static_cast<double>(events.size() % 997);
      events.push_back(e);
    }
    now = events.empty() ? now : events.back().timestamp + 1;
  };
  append(dense, 8, 0);
  append(trough, 0, 20);
  append(total - dense - trough, 8, 0);
  return events;
}

struct RunStats {
  double events_per_sec = 0.0;
  bench::ResultFingerprint totals;
  StreamSession::SessionStats session;
  uint32_t min_shards_seen = 0;
  telemetry::MetricsSnapshot metrics;
};

int RunOne(bool adaptive, uint32_t start_shards,
           const std::vector<Event>& events, uint32_t keys, RunStats* out) {
  StreamSession::Options options;
  options.num_keys = keys;
  options.num_shards = start_shards;
  if (adaptive) {
    options.auto_resize.enabled = true;
    options.auto_resize.min_shards = 1;
    options.auto_resize.max_shards = start_shards;
    options.monitor_interval = 1024;
    options.auto_resize.scale_down_checks = 2;
    // Event-time throughput signal only (see the file comment): never
    // hot by occupancy, always cold-eligible, η̂ <= 2 per shard.
    options.auto_resize.scale_up_occupancy = 2.0;
    options.auto_resize.scale_down_occupancy = 1.0;
    options.auto_resize.target_rate_per_shard = 2.0;
    options.adaptive.enabled = true;
    options.adaptive.rate_alpha = 0.5;
    options.adaptive.reoptimize_ratio = 2.0;
    options.adaptive.min_events_between_replans = 4096;
  }
  StreamSession session(options);

  StreamSession::ResultCallback fold = [out](const WindowResult& r) {
    out->totals.Fold(r);
  };
  Result<QueryId> id = session.AddQuery(Query()
                                            .Max("v")
                                            .From("fleet")
                                            .PerKey("device")
                                            .Tumbling(20)
                                            .Tumbling(30)
                                            .Tumbling(40),
                                        fold);
  if (!id.ok()) {
    std::fprintf(stderr, "AddQuery: %s\n", id.status().ToString().c_str());
    return 1;
  }

  out->min_shards_seen = session.Stats().num_shards;
  MonotonicTimer timer;
  for (size_t i = 0; i < events.size(); ++i) {
    Status status = session.Push(events[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "Push: %s\n", status.ToString().c_str());
      return 1;
    }
    if ((i & 4095u) == 0u) {
      out->min_shards_seen =
          std::min(out->min_shards_seen, session.Stats().num_shards);
    }
  }
  Status status = session.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "Finish: %s\n", status.ToString().c_str());
    return 1;
  }
  const double seconds = timer.ElapsedSeconds();
  out->events_per_sec =
      seconds > 0.0 ? static_cast<double>(events.size()) / seconds : 0.0;
  out->session = session.Stats();
  out->min_shards_seen =
      std::min(out->min_shards_seen, out->session.num_shards);
  out->metrics = session.Metrics().telemetry;
  return 0;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, EventCountFromEnv("FW_EVENTS_1M", 300'000));
  const uint32_t start_shards = args.shards.empty() ? 4 : args.shards.front();
  const std::vector<Event> events = DriftingStream(args.events, args.keys);

  RunStats fixed;
  if (int rc = RunOne(false, start_shards, events, args.keys, &fixed)) {
    return rc;
  }
  RunStats drifting;
  if (int rc = RunOne(true, start_shards, events, args.keys, &drifting)) {
    return rc;
  }

  // Exactness first: a throughput number from a run that dropped or
  // duplicated results is not a benchmark result.
  if (!drifting.totals.Matches(fixed.totals)) {
    std::fprintf(stderr,
                 "exactness violated: adaptive delivered %llu results "
                 "(fingerprint %016llx) vs static %llu (%016llx)\n",
                 static_cast<unsigned long long>(drifting.totals.results),
                 static_cast<unsigned long long>(drifting.totals.fingerprint),
                 static_cast<unsigned long long>(fixed.totals.results),
                 static_cast<unsigned long long>(fixed.totals.fingerprint));
    return 1;
  }
  // Liveness: the drifting workload must actually exercise the feedback
  // loop, or the "adaptive" row is measuring a static session.
  if (drifting.session.drift_replans < 1) {
    std::fprintf(stderr,
                 "no drift replan fired over %zu drifting events "
                 "(observed_eta %.3f, planned_eta %.3f)\n",
                 events.size(), drifting.session.observed_eta,
                 drifting.session.planned_eta);
    return 1;
  }
  if (drifting.session.resize_count < 2) {
    std::fprintf(stderr,
                 "auto-resize stayed quiet over the trough: %llu resizes "
                 "(min width seen %u)\n",
                 static_cast<unsigned long long>(
                     drifting.session.resize_count),
                 drifting.min_shards_seen);
    return 1;
  }

  std::printf(
      "{\"context\":{\"executable\":\"bench_adaptive\",\"events\":%zu,"
      "\"keys\":%u,\"start_shards\":%u},\"benchmarks\":["
      "{\"name\":\"BM_DriftingWorkload/static\",\"run_type\":\"iteration\","
      "\"iterations\":1,\"items_per_second\":%.1f,"
      "\"resize_count\":0,\"drift_replans\":0},"
      "{\"name\":\"BM_DriftingWorkload/adaptive\","
      "\"run_type\":\"iteration\",\"iterations\":1,"
      "\"items_per_second\":%.1f,\"resize_count\":%llu,"
      "\"drift_replans\":%d,\"min_shards_seen\":%u,"
      "\"final_shards\":%u,\"observed_eta\":%.4f,\"planned_eta\":%.4f}]}\n",
      events.size(), args.keys, start_shards, fixed.events_per_sec,
      drifting.events_per_sec,
      static_cast<unsigned long long>(drifting.session.resize_count),
      drifting.session.drift_replans, drifting.min_shards_seen,
      drifting.session.num_shards, drifting.session.observed_eta,
      drifting.session.planned_eta);
  // The adaptive run's telemetry (drift counter, resize spans, observed
  // η̂ gauge) is the artifact worth keeping; the static run is a checksum.
  bench::WriteMetricsJson(args.metrics_json, drifting.metrics);
  return 0;
}

}  // namespace
}  // namespace fw

int main(int argc, char** argv) { return fw::Run(argc, argv); }
