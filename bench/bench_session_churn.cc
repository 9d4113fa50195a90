// StreamSession churn micro-benchmark: what does live re-optimization
// cost? Two measurements:
//   1. replan latency as the live query population grows (AddQuery on an
//      idle session, state migration included);
//   2. end-to-end throughput of a streaming session under add/remove
//      churn at varying rates, vs the same session left alone.
// Changes touching the optimizer or the migration path should watch
// these numbers. Any library error exits 1 with its message, so a smoke
// run fails loudly instead of printing a throughput.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "session/session.h"

namespace {

using namespace fw;

void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

StreamQuery MakeDashboard(Rng* rng) {
  StreamQuery q;
  q.source = "telemetry";
  q.agg = Agg("MIN");
  q.value_column = "v";
  int windows = 1 + static_cast<int>(rng->Uniform(0, 1));
  while (static_cast<int>(q.windows.size()) < windows) {
    TimeT r = 10 * static_cast<TimeT>(rng->Uniform(2, 48));
    (void)q.windows.Add(Window::Tumbling(r));
  }
  return q;
}

void BenchReplanLatency() {
  std::printf("--- replan latency vs live query count ---\n");
  std::printf("%8s %14s %14s %12s\n", "queries", "replan(ms)",
              "migrated", "cold");
  Rng rng(7);
  StreamSession session;
  // Warm the session with some stream history so migration moves real
  // state, not empty operators.
  std::vector<Event> warmup = GenerateSyntheticStream(20000, 1, 3);
  for (int target : {1, 2, 5, 10, 20, 40}) {
    while (static_cast<int>(session.num_queries()) < target) {
      CheckOk(session.AddQuery(MakeDashboard(&rng)).status(), "AddQuery");
    }
    CheckOk(session.PushBatch(warmup), "PushBatch");
    warmup.clear();  // Only push history once.
    StreamSession::SessionStats stats = session.Stats();
    std::printf("%8zu %14.3f %14d %12d\n", session.num_queries(),
                stats.last_replan_seconds * 1e3, stats.operators_migrated,
                stats.operators_cold);
  }
}

void BenchChurnThroughput(const std::vector<Event>& events) {
  std::printf("\n--- throughput under churn (%zu events, 10 dashboards) "
              "---\n", events.size());
  std::printf("%18s %14s %10s %16s %16s\n", "churn interval", "tput(K/s)",
              "replans", "mean replan(ms)", "max replan(ms)");
  for (size_t interval : {size_t{0}, events.size() / 4, events.size() / 16,
                          events.size() / 64}) {
    Rng rng(11);
    StreamSession session;
    std::vector<QueryId> live;
    for (int i = 0; i < 10; ++i) {
      live.push_back(session.AddQuery(MakeDashboard(&rng)).value());
    }

    double replan_total_ms = 0.0;
    double replan_max_ms = 0.0;
    int replans = 0;
    MonotonicTimer timer;
    for (size_t i = 0; i < events.size(); ++i) {
      if (interval != 0 && i > 0 && i % interval == 0) {
        // One churn op: replace a random dashboard with a fresh one.
        size_t victim = static_cast<size_t>(
            rng.Uniform(0, static_cast<int>(live.size()) - 1));
        CheckOk(session.RemoveQuery(live[victim]), "RemoveQuery");
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
        double ms = session.Stats().last_replan_seconds * 1e3;
        replan_total_ms += ms;
        replan_max_ms = std::max(replan_max_ms, ms);
        live.push_back(session.AddQuery(MakeDashboard(&rng)).value());
        ms = session.Stats().last_replan_seconds * 1e3;
        replan_total_ms += ms;
        replan_max_ms = std::max(replan_max_ms, ms);
        replans += 2;
      }
      CheckOk(session.Push(events[i]), "Push");
    }
    CheckOk(session.Finish(), "Finish");
    const double seconds = timer.ElapsedSeconds();

    char label[32];
    if (interval == 0) {
      std::snprintf(label, sizeof(label), "none");
    } else {
      std::snprintf(label, sizeof(label), "every %zu", interval);
    }
    std::printf("%18s %14.1f %10d %16.3f %16.3f\n", label,
                static_cast<double>(events.size()) / seconds / 1000.0,
                replans, replans > 0 ? replan_total_ms / replans : 0.0,
                replan_max_ms);
  }
}

}  // namespace

int main() {
  using namespace fw;
  std::printf("=== StreamSession churn overhead ===\n\n");
  BenchReplanLatency();
  BenchChurnThroughput(bench::Synthetic1MDefault());
  std::printf(
      "\n(replan latency includes joint re-optimization, checkpoint, "
      "lineage migration, and executor swap)\n");
  return 0;
}
