// Telemetry layer (DESIGN.md §13): bucket math and percentile contracts
// of the log2 histogram, sharded-cell exactness, trace-ring bounds,
// renderer formats, the executor's per-drain-point timers, and the
// headline merge contract — session counters stay exact across a 1→4→2
// live resize ramp. Writer/snapshot races run under the `threaded`
// label, so the ThreadSanitizer CI leg proves snapshots are race-free.
// Every value assertion is gated on telemetry::kEnabled, so this suite
// also passes in a -DFW_TELEMETRY=OFF build, where it instead pins the
// compile-out contract (empty snapshots, enabled=false, zero-cost
// objects).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agg/aggregate.h"
#include "durability/framed_io.h"
#include "plan/plan.h"
#include "runtime/sharded_executor.h"
#include "session/session.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/prometheus.h"
#include "workload/datagen.h"

namespace fw {
namespace telemetry {
namespace {

// --- Bucket math (pure functions: hold in ON and OFF builds alike) ----------

TEST(BucketMath, BoundariesRoundTrip) {
  EXPECT_EQ(BucketOf(0), 0u);
  EXPECT_EQ(BucketOf(1), 1u);
  EXPECT_EQ(BucketOf(2), 2u);
  EXPECT_EQ(BucketOf(3), 2u);
  EXPECT_EQ(BucketOf(4), 3u);
  EXPECT_EQ(BucketOf(~uint64_t{0}), 64u);
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(BucketOf(BucketLow(b)), b) << "low edge of bucket " << b;
    EXPECT_EQ(BucketOf(BucketHigh(b)), b) << "high edge of bucket " << b;
    if (b > 0) {
      EXPECT_EQ(BucketHigh(b - 1) + 1, BucketLow(b))
          << "gap between buckets " << b - 1 << " and " << b;
    }
  }
}

TEST(BucketMath, EmptySnapshotPercentiles) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, RecordCountsSumAndBuckets) {
  Histogram hist;
  // 10 zeros, 5 ones, 3 in [4,7] (bucket 3), across different cells.
  for (int i = 0; i < 10; ++i) hist.Record(i, 0);
  for (int i = 0; i < 5; ++i) hist.Record(i + 7, 1);
  hist.Record(0, 4);
  hist.Record(1, 5);
  hist.Record(31, 7);  // Masked down to cell 15.
  HistogramSnapshot snap = hist.Snapshot();
  if (!kEnabled) {
    EXPECT_EQ(snap.count, 0u);
    return;
  }
  EXPECT_EQ(snap.count, 18u);
  EXPECT_EQ(snap.sum, 10u * 0 + 5u * 1 + 4 + 5 + 7);
  EXPECT_EQ(snap.buckets[0], 10u);
  EXPECT_EQ(snap.buckets[1], 5u);
  EXPECT_EQ(snap.buckets[2], 0u);
  EXPECT_EQ(snap.buckets[3], 3u);
}

TEST(Histogram, PercentileRankWalk) {
  Histogram hist;
  // 50 zeros and 50 values of 100 (bucket 7 = [64, 127]).
  for (int i = 0; i < 50; ++i) hist.Record(0, 0);
  for (int i = 0; i < 50; ++i) hist.Record(0, 100);
  HistogramSnapshot snap = hist.Snapshot();
  if (!kEnabled) return;
  // Ranks <= 50 land in the zero bucket: exact.
  EXPECT_EQ(snap.Percentile(0.25), 0.0);
  // Ranks above land in bucket 7: the interpolated estimate must stay
  // inside the bucket's value range — the factor-of-two contract.
  const double p90 = snap.Percentile(0.90);
  EXPECT_GE(p90, static_cast<double>(BucketLow(7)));
  EXPECT_LE(p90, static_cast<double>(BucketHigh(7)));
  // Percentiles are monotone in q.
  EXPECT_LE(snap.Percentile(0.50), snap.Percentile(0.75));
  EXPECT_LE(snap.Percentile(0.75), snap.Percentile(0.99));
}

// --- Counters, gauges, cells -------------------------------------------------

TEST(Counter, ShardedCellsSumExactly) {
  Counter counter;
  uint64_t expected = 0;
  // Hit every cell, including indices past the mask (shard 16+ aliases
  // onto cell (i & 15) — totals must stay exact either way).
  for (uint32_t i = 0; i < 3 * kCells; ++i) {
    counter.Add(i, i + 1);
    expected += i + 1;
  }
  EXPECT_EQ(counter.Total(), kEnabled ? expected : 0u);
}

TEST(MaxGauge, PerCellHighWaterMarks) {
  MaxGauge gauge;
  gauge.UpdateMax(0, 5);
  gauge.UpdateMax(0, 3);  // Lower: must not overwrite.
  gauge.UpdateMax(3, 9);
  gauge.UpdateMax(kCells + 3, 7);  // Aliases cell 3; below its max.
  EXPECT_EQ(gauge.Max(), kEnabled ? 9u : 0u);
  if (kEnabled) {
    std::vector<uint64_t> cells = gauge.PerCell();
    ASSERT_EQ(cells.size(), kCells);
    EXPECT_EQ(cells[0], 5u);
    EXPECT_EQ(cells[3], 9u);
  }
}

TEST(Gauge, SetAndRead) {
  Gauge gauge;
  gauge.Set(0.75);
  EXPECT_EQ(gauge.Value(), kEnabled ? 0.75 : 0.0);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, HandlesAreStableAcrossReResolution) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("exec.some_counter");
  a->Increment(0);
  // Re-resolving (what a replan's fresh executor does) returns the same
  // object and never resets it — the cumulative-across-swaps contract.
  Counter* b = registry.GetCounter("exec.some_counter");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->Total(), kEnabled ? 1u : 0u);
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetMaxGauge("m"), registry.GetMaxGauge("m"));
}

TEST(Registry, TraceRingBoundsAndOrder) {
  MetricsRegistry registry;
  const size_t extra = 17;
  const size_t total = MetricsRegistry::kTraceCapacity + extra;
  for (size_t i = 0; i < total; ++i) {
    registry.RecordTrace(TraceKind::kCheckpoint, 0,
                         static_cast<int64_t>(i));
  }
  MetricsSnapshot snap = registry.Snapshot();
  if (!kEnabled) {
    EXPECT_FALSE(snap.enabled);
    EXPECT_TRUE(snap.trace.empty());
    EXPECT_EQ(snap.trace_dropped, 0u);
    return;
  }
  ASSERT_EQ(snap.trace.size(), MetricsRegistry::kTraceCapacity);
  EXPECT_EQ(snap.trace_dropped, extra);
  // Oldest first: the surviving window is [extra, total).
  for (size_t i = 0; i < snap.trace.size(); ++i) {
    EXPECT_EQ(snap.trace[i].a, static_cast<int64_t>(extra + i));
    if (i > 0) {
      EXPECT_GE(snap.trace[i].at_ns, snap.trace[i - 1].at_ns);
    }
  }
}

TEST(Registry, CompileOutContract) {
  if (kEnabled) GTEST_SKIP() << "pins the -DFW_TELEMETRY=OFF build only";
  // Compiled out, metric objects carry no storage (an empty class, not
  // 16 cache lines of cells) and snapshots come back empty.
  EXPECT_LE(sizeof(Counter), sizeof(void*));
  EXPECT_LE(sizeof(Histogram), sizeof(void*));
  MetricsRegistry registry;
  registry.GetCounter("x")->Add(0, 42);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(NowNanosIfEnabled(), 0u);
}

// Writers on four threads against one registry while the main thread
// snapshots continuously: TSan (the `threaded` CI leg) proves the
// relaxed cells and the locked snapshot never race, and the final
// quiesced snapshot is exact.
TEST(Registry, SnapshotIsRaceFreeAndExactOnceQuiesced) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("t.counter");
  Histogram* hist = registry.GetHistogram("t.hist");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment(static_cast<uint32_t>(t));
        hist->Record(static_cast<uint32_t>(t), i & 1023);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Live snapshots race benignly with the relaxed writers; they must
  // never crash, tear a histogram row, or trip TSan.
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot live = registry.Snapshot();
    EXPECT_LE(live.counters["t.counter"], kThreads * kPerThread);
  }
  for (std::thread& w : writers) w.join();
  MetricsSnapshot final_snap = registry.Snapshot();
  if (kEnabled) {
    EXPECT_EQ(final_snap.counters["t.counter"], kThreads * kPerThread);
    EXPECT_EQ(final_snap.histograms["t.hist"].count, kThreads * kPerThread);
  }
}

// --- Renderers ---------------------------------------------------------------

MetricsSnapshot RenderFixture() {
  MetricsSnapshot snap;
  snap.counters["session.events_pushed"] = 1234;
  snap.gauges["session.ring_occupancy"] = 0.5;
  HistogramSnapshot hist;
  hist.count = 3;
  hist.sum = 0 + 1 + 100;
  hist.buckets[BucketOf(0)] += 1;
  hist.buckets[BucketOf(1)] += 1;
  hist.buckets[BucketOf(100)] += 1;
  snap.histograms["exec.lat"] = hist;
  TraceEvent event;
  event.at_ns = 7;
  event.kind = TraceKind::kResize;
  event.duration_ns = 99;
  event.a = 1;
  event.b = 4;
  snap.trace.push_back(event);
  snap.trace_dropped = 2;
  return snap;
}

TEST(Prometheus, RendersExpositionFormat) {
  std::string text = RenderPrometheus(RenderFixture());
  EXPECT_NE(text.find("# TYPE fw_session_events_pushed counter\n"
                      "fw_session_events_pushed 1234\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fw_session_ring_occupancy gauge\n"
                      "fw_session_ring_occupancy 0.5\n"),
            std::string::npos);
  // Cumulative le-buckets: zeros bucket (le="0") 1, le="1" 2, then the
  // populated prefix runs to bucket 7 (le="127") before +Inf.
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_count 3\n"), std::string::npos);
}

TEST(Json, RendersSnapshotShape) {
  std::string json = RenderJson(RenderFixture());
  EXPECT_NE(json.find("\"session.events_pushed\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"session.ring_occupancy\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3, \"sum\": 101"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"resize\", \"duration_ns\": 99, "
                      "\"a\": 1, \"b\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\": 2"), std::string::npos);
}

// --- Executor drain stage ----------------------------------------------------

// executor.drain_wait_ns (flush + waiting for the workers) and
// executor.drain_deliver_ns (merge + callbacks) take one sample each per
// drain point of a threaded executor — periodic, Drain, Checkpoint,
// Restore and Finish — and none inline, where Push delivers directly.
TEST(ExecutorMetrics, DrainStageRecordsOneSamplePerDrainPoint) {
  constexpr uint32_t kKeys = 8;
  const std::vector<Event> events = GenerateSyntheticStream(1050, kKeys, 9);
  WindowSet set;
  ASSERT_TRUE(set.Add(Window::Tumbling(20)).ok());
  const QueryPlan plan = QueryPlan::Original(set, Agg("MIN"));
  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    MetricsRegistry registry;
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.drain_interval = 100;
    options.metrics = &registry;
    CountingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    const auto push = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; ++i) executor.Push(events[i]);
    };
    push(0, 500);                 // 5 periodic drain points.
    executor.Drain();             // 1.
    Result<ExecutorCheckpoint> checkpoint = executor.Checkpoint();  // 1.
    ASSERT_TRUE(checkpoint.ok());
    push(500, events.size());     // 5 periodic.
    ASSERT_TRUE(executor.Restore(*checkpoint).ok());  // 1.
    push(500, events.size());     // 5 periodic.
    executor.Finish();            // 1.
    const uint64_t expected = kEnabled && shards > 1 ? 19 : 0;
    MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.histograms["executor.drain_wait_ns"].count, expected);
    EXPECT_EQ(snap.histograms["executor.drain_deliver_ns"].count, expected);
  }
}

// --- Durability snapshot timers ----------------------------------------------

// durability.snapshot_stall_ns (the caller thread's share) and
// durability.snapshot_write_ns (the background writer's) take one sample
// per snapshot: each periodic one and Finish's.
TEST(SessionMetrics, SnapshotTimersRecordOneSamplePerSnapshot) {
  char tmpl[] = "/tmp/fw_telemetry_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  StreamSession::SessionMetrics metrics;
  {
    StreamSession::Options options;
    options.num_keys = 4;
    options.durability.enabled = true;
    options.durability.dir = dir;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    ASSERT_TRUE(
        session.AddQuery(Query().Sum("v").From("s").PerKey("k").Tumbling(20))
            .ok());
    for (const Event& e : GenerateSyntheticStream(300, 4, 17)) {
      ASSERT_TRUE(session.Push(e).ok());  // Snapshots at 64, 128, 192, 256.
    }
    ASSERT_TRUE(session.Finish().ok());   // And one more.
    metrics = session.Metrics();
  }
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    ASSERT_TRUE(durability::RemoveFile(dir + "/" + name).ok());
  }
  ::rmdir(dir.c_str());

  EXPECT_EQ(metrics.stats.snapshots_written, 5u);
  const uint64_t expected = kEnabled ? 5 : 0;
  EXPECT_EQ(metrics.telemetry.histograms["durability.snapshot_stall_ns"].count,
            expected);
  EXPECT_EQ(metrics.telemetry.histograms["durability.snapshot_write_ns"].count,
            expected);
}

// --- Session integration: merge exactness across a live resize ramp ----------

using SessionResults =
    std::map<std::tuple<int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback Collect(SessionResults* out) {
  return [out](const WindowResult& r) {
    (*out)[{r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

void AddDashboards(StreamSession& session, SessionResults* results) {
  QueryBuilder dash = Query().Max("v").From("fleet").PerKey("device");
  ASSERT_TRUE(
      session.AddQuery(QueryBuilder(dash).Tumbling(20).Hopping(60, 20),
                       Collect(results))
          .ok());
  ASSERT_TRUE(
      session.AddQuery(QueryBuilder(dash).Tumbling(40), Collect(results))
          .ok());
}

// The headline contract: a session resized 1→4→2 mid-stream reports
// byte-identical results, and its metric totals survive the shard
// checkpoint hand-offs without loss or double-merge. Two counter
// families with two different exactness shapes:
//
//  * finalized_results counts delivered results — width-*invariant*, so
//    the ramp must equal a fixed single-shard run exactly;
//  * closed_instances counts per-shard instance closes — each shard
//    closes its own copy of a window instance for its keys, so totals
//    legitimately scale with the width profile. Exactness there means
//    deterministic (an identical ramp reproduces the totals bit-for-bit,
//    so the retired-tally banking at each resize loses nothing) and
//    conserved within [fixed, max_width * fixed].
//
// Engine totals come from the engine's own counters, so this holds even
// in an OFF build.
TEST(SessionMetrics, CountersMergeExactlyAcrossResizeRamp) {
  const std::vector<Event> events = GenerateSyntheticStream(12'000, 16, 91);

  SessionResults fixed_results;
  StreamSession::SessionMetrics fixed;
  {
    StreamSession session({.num_keys = 16, .num_shards = 1});
    AddDashboards(session, &fixed_results);
    ASSERT_TRUE(session.PushBatch(events).ok());
    ASSERT_TRUE(session.Finish().ok());
    fixed = session.Metrics();
  }

  auto run_ramp = [&](SessionResults* results,
                      StreamSession::SessionMetrics* metrics) {
    StreamSession session({.num_keys = 16, .num_shards = 1});
    AddDashboards(session, results);
    const size_t third = events.size() / 3;
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == third) {
        ASSERT_TRUE(session.Resize(4).ok());
      }
      if (i == 2 * third) {
        ASSERT_TRUE(session.Resize(2).ok());
      }
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    *metrics = session.Metrics();
  };
  SessionResults ramp_results;
  StreamSession::SessionMetrics ramp;
  run_ramp(&ramp_results, &ramp);
  SessionResults replay_results;
  StreamSession::SessionMetrics replay;
  run_ramp(&replay_results, &replay);

  EXPECT_EQ(ramp_results, fixed_results);
  EXPECT_EQ(ramp.finalized_results_total, fixed.finalized_results_total);
  EXPECT_EQ(ramp.finalized_results_total, ramp_results.size());
  // Replay determinism: if any resize hand-off dropped or double-banked
  // a tally, two identical runs could not agree bit-for-bit.
  EXPECT_EQ(replay.closed_instances_total, ramp.closed_instances_total);
  EXPECT_EQ(replay.finalized_results_total, ramp.finalized_results_total);
  // Conservation: at least the single-shard closes, at most max-width
  // copies of them.
  EXPECT_GE(ramp.closed_instances_total, fixed.closed_instances_total);
  EXPECT_LE(ramp.closed_instances_total, 4 * fixed.closed_instances_total);
  ASSERT_EQ(ramp.operators.size(), fixed.operators.size());
  for (size_t i = 0; i < ramp.operators.size(); ++i) {
    EXPECT_EQ(ramp.operators[i].finalized_results,
              fixed.operators[i].finalized_results)
        << "operator " << i;
    EXPECT_EQ(replay.operators[i].closed_instances,
              ramp.operators[i].closed_instances)
        << "operator " << i;
    EXPECT_GE(ramp.operators[i].closed_instances,
              fixed.operators[i].closed_instances)
        << "operator " << i;
  }
  EXPECT_EQ(ramp.telemetry_enabled, kEnabled);
  if (kEnabled) {
    EXPECT_EQ(ramp.telemetry.counters.at("session.events_pushed"),
              events.size());
    EXPECT_EQ(ramp.telemetry.counters.at("session.events_pushed"),
              fixed.telemetry.counters.at("session.events_pushed"));
    EXPECT_EQ(ramp.telemetry.counters.at("session.resizes"), 2u);
    // Both resize spans made it into the trace ring.
    int resizes_traced = 0;
    for (const TraceEvent& event : ramp.telemetry.trace) {
      if (event.kind == TraceKind::kResize) ++resizes_traced;
    }
    EXPECT_EQ(resizes_traced, 2);
  } else {
    EXPECT_FALSE(ramp.telemetry.enabled);
    EXPECT_TRUE(ramp.telemetry.counters.empty());
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace fw
