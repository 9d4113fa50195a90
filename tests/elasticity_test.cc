// Online elasticity (DESIGN.md §10): live shard re-scaling with exact
// state handoff. The tests here prove the headline invariant — a session
// resized mid-stream (with churn and bounded disorder active) emits
// bitwise what fixed-shard sessions emit — and pin the SessionStats
// counter-lifecycle contract across every kind of executor swap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "multi/multi_query.h"
#include "runtime/partition.h"
#include "runtime/sharded_executor.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

using SessionResults =
    std::map<std::tuple<int, int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback Tagged(SessionResults* out, int tag) {
  return [out, tag](const WindowResult& r) {
    (*out)[{tag, r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

QueryBuilder PerDevice(TimeT range) {
  return Query().Max("v").From("fleet").PerKey("device").Tumbling(range);
}

// EXPECT_EQ on result maps, but on mismatch print only the differing
// entries (whole-map dumps are unreadable at thousands of windows).
void ExpectSameResults(const SessionResults& got,
                       const SessionResults& want, const char* label) {
  if (got == want) return;
  ADD_FAILURE() << label << ": result maps differ (got " << got.size()
                << " entries, want " << want.size() << ")";
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << label << ": missing (" << std::get<0>(key) << ", "
                    << std::get<1>(key) << ", " << std::get<2>(key) << ", "
                    << std::get<3>(key) << ", " << std::get<4>(key)
                    << ") = " << value;
    } else if (it->second != value) {
      ADD_FAILURE() << label << ": value mismatch at (" << std::get<0>(key)
                    << ", " << std::get<1>(key) << ", " << std::get<2>(key)
                    << ", " << std::get<3>(key) << ", " << std::get<4>(key)
                    << "): got " << it->second << ", want " << value;
    }
  }
  for (const auto& [key, value] : got) {
    if (want.find(key) == want.end()) {
      ADD_FAILURE() << label << ": extra (" << std::get<0>(key) << ", "
                    << std::get<1>(key) << ", " << std::get<2>(key) << ", "
                    << std::get<3>(key) << ", " << std::get<4>(key)
                    << ") = " << value;
    }
  }
}

QueryPlan SharedTestPlan() {
  StreamQuery q1;
  q1.source = "s";
  q1.agg = Agg("MIN");
  q1.per_key = true;
  q1.key_column = "k";
  EXPECT_TRUE(q1.windows.Add(Window::Tumbling(20)).ok());
  EXPECT_TRUE(q1.windows.Add(Window(60, 20)).ok());
  StreamQuery q2 = q1;
  q2.windows = WindowSet();
  EXPECT_TRUE(q2.windows.Add(Window::Tumbling(40)).ok());
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize({q1, q2});
  EXPECT_TRUE(shared.ok()) << shared.status().ToString();
  return shared->plan;
}

// --- Executor-level resize -------------------------------------------------

TEST(ExecutorResize, MidStreamResizesMatchUninterruptedRun) {
  constexpr uint32_t kKeys = 16;
  constexpr TimeT kMaxDelay = 48;
  std::vector<Event> sorted = GenerateSyntheticStream(18000, kKeys, 51);
  std::vector<Event> shuffled =
      ApplyBoundedDisorder(sorted, static_cast<size_t>(kMaxDelay), 52);
  QueryPlan plan = SharedTestPlan();

  CollectingSink reference;
  uint64_t reference_ops = 0;
  ExecutePlan(plan, sorted, kKeys, &reference, nullptr, &reference_ops);

  // 1 -> 4 -> 2 -> 1 mid-disorder: every transition direction (inline ->
  // threaded, narrow, back to inline) with in-flight reorder buffers.
  const std::vector<std::pair<size_t, uint32_t>> schedule = {
      {shuffled.size() / 4, 4},
      {shuffled.size() / 2, 2},
      {3 * shuffled.size() / 4, 1}};
  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 1;
  options.batch_size = 16;
  options.drain_interval = 3000;
  options.max_delay = kMaxDelay;
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);
  size_t next = 0;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    if (next < schedule.size() && i == schedule[next].first) {
      const uint64_t late_before = executor.late_events();
      const uint64_t ops_before = executor.TotalAccumulateOps();
      ASSERT_TRUE(executor.Resize(schedule[next].second).ok());
      EXPECT_EQ(executor.num_shards(),
                EffectiveShards(schedule[next].second, kKeys));
      // Cumulative counters survive the swap bit for bit.
      EXPECT_EQ(executor.late_events(), late_before);
      EXPECT_EQ(executor.TotalAccumulateOps(), ops_before);
      ++next;
    }
    executor.Push(shuffled[i]);
  }
  executor.Finish();
  EXPECT_EQ(executor.late_events(), 0u);
  EXPECT_EQ(sink.ToMap(), reference.ToMap());
  EXPECT_EQ(executor.TotalAccumulateOps(), reference_ops);
}

TEST(ExecutorResize, SameEffectiveWidthIsANoOpSwap) {
  constexpr uint32_t kKeys = 4;
  QueryPlan plan = SharedTestPlan();
  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 4;
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);
  ASSERT_EQ(executor.num_shards(), 4u);
  // 8 shards over 4 keys clamps right back to 4 — recorded, not rebuilt.
  ASSERT_TRUE(executor.Resize(8).ok());
  EXPECT_EQ(executor.num_shards(), 4u);
  EXPECT_EQ(executor.Resize(0).code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorResize, EventsPerShardRestartAtTheNewWidth) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(4000, kKeys, 53);
  QueryPlan plan = SharedTestPlan();
  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);
  for (const Event& event : events) executor.Push(event);

  std::vector<uint64_t> counts = executor.EventsPerShard();
  ASSERT_EQ(counts.size(), 2u);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, events.size());

  ASSERT_TRUE(executor.Resize(4).ok());
  counts = executor.EventsPerShard();
  ASSERT_EQ(counts.size(), 4u);  // Per-topology counters restart.
  for (uint64_t c : counts) EXPECT_EQ(c, 0u);
  executor.Finish();
}

// Rolling back to an older checkpoint must not inherit the execution's
// newer close frontier: a stale frontier would let the next Checkpoint
// close (and emit) windows the replay still owes events to. After a
// rollback, an immediate re-checkpoint must reproduce the snapshot.
TEST(ExecutorResize, RollbackRestoreDoesNotInheritCloseFrontier) {
  constexpr uint32_t kKeys = 8;
  std::vector<Event> events = GenerateSyntheticStream(4000, kKeys, 63);
  QueryPlan plan = SharedTestPlan();
  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);

  for (size_t i = 0; i < events.size() / 2; ++i) executor.Push(events[i]);
  Result<ExecutorCheckpoint> snapshot = executor.Checkpoint();
  ASSERT_TRUE(snapshot.ok());

  // Run ahead, then roll back.
  for (size_t i = events.size() / 2; i < events.size(); ++i) {
    executor.Push(events[i]);
  }
  ASSERT_TRUE(executor.Restore(*snapshot).ok());

  Result<ExecutorCheckpoint> again = executor.Checkpoint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Serialize(), snapshot->Serialize());
}

// A sharded Restore is a drain point. Before it returns, the results the
// shards produced since the last drain reach the sink — inline mode had
// already delivered them — so after a rollback no chunk holds a result
// together with its replayed repeat.
TEST(ExecutorResize, RollbackRestoreDeliversBufferedResultsFirst) {
  constexpr uint32_t kKeys = 8;
  constexpr TimeT kSnapshotAt = 400;
  constexpr TimeT kRunAheadTo = 700;
  constexpr TimeT kEnd = 1000;
  QueryPlan plan = SharedTestPlan();
  // Every timestamp carries every key, so every shard sees every
  // timestamp and closes each instance at the event-time point inline
  // mode does: at a timestamp boundary both have emitted the same results.
  std::vector<Event> events;
  for (TimeT t = 0; t < kEnd; ++t) {
    for (uint32_t key = 0; key < kKeys; ++key) {
      events.push_back(
          {.timestamp = t,
           .key = key,
           .value = static_cast<double>((t * 37 + key * 11) % 101)});
    }
  }
  const auto first_at = [](TimeT t) { return static_cast<size_t>(t) * kKeys; };

  // (end, start, operator, key, value): merge order, then the value.
  using Flat = std::tuple<TimeT, TimeT, int, uint32_t, double>;
  // Logs each result with the API call that delivered it (`call` advances
  // before every call), so a chunk is a run of equal call numbers.
  struct CallLog : ResultSink {
    void OnResult(const WindowResult& r) override {
      log.emplace_back(call, Flat{r.end, r.start, r.operator_id, r.key,
                                  r.value});
    }
    std::vector<Flat> SortedResults() const {
      std::vector<Flat> results;
      for (const auto& [c, flat] : log) results.push_back(flat);
      std::sort(results.begin(), results.end());
      return results;
    }
    uint64_t call = 0;
    std::vector<std::pair<uint64_t, Flat>> log;
  };
  // Push to the snapshot, checkpoint, run ahead, roll back, replay, Finish.
  // Returns the sorted results the sink held when Restore returned.
  const auto drive = [&](uint32_t shards, CallLog* sink) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 16;
    // One periodic drain before the snapshot, none during the run-ahead
    // (its results are all still buffered at the rollback), one during
    // the replay.
    options.drain_interval = 3000;
    ShardedExecutor executor(plan, options, sink);
    const auto push = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; ++i) {
        ++sink->call;
        executor.Push(events[i]);
      }
    };
    push(0, first_at(kSnapshotAt));
    ++sink->call;
    Result<ExecutorCheckpoint> snapshot = executor.Checkpoint();
    EXPECT_TRUE(snapshot.ok());
    push(first_at(kSnapshotAt), first_at(kRunAheadTo));
    ++sink->call;
    EXPECT_TRUE(executor.Restore(*snapshot).ok());
    std::vector<Flat> at_restore = sink->SortedResults();
    push(first_at(kSnapshotAt), events.size());
    ++sink->call;
    executor.Finish();
    return at_restore;
  };

  CallLog inline_log;
  const std::vector<Flat> inline_at_restore = drive(1, &inline_log);
  ASSERT_FALSE(inline_at_restore.empty());
  for (uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    for (uint32_t s = 0; s < shards; ++s) {
      bool owns_key = false;
      for (uint32_t key = 0; key < kKeys; ++key) {
        owns_key |= ShardForKey(key, shards) == s;
      }
      ASSERT_TRUE(owns_key) << "shard " << s << " would see no timestamps";
    }
    CallLog sharded;
    const std::vector<Flat> at_restore = drive(shards, &sharded);
    EXPECT_EQ(at_restore, inline_at_restore);
    // The replay repeats the run-ahead's results, so the whole delivery
    // is inline mode's multiset, repeats included.
    EXPECT_EQ(sharded.SortedResults(), inline_log.SortedResults());
    for (size_t i = 1; i < sharded.log.size(); ++i) {
      const auto& [prev_call, prev] = sharded.log[i - 1];
      const auto& [call, result] = sharded.log[i];
      if (prev_call != call) continue;
      EXPECT_LT(std::make_tuple(std::get<0>(prev), std::get<1>(prev),
                                std::get<2>(prev), std::get<3>(prev)),
                std::make_tuple(std::get<0>(result), std::get<1>(result),
                                std::get<2>(result), std::get<3>(result)))
          << "chunk delivered by call " << call << ", entry " << i;
    }
  }
}

// --- Session-level resize: the acceptance invariant ------------------------

struct ResizeAt {
  size_t at_event;
  uint32_t shards;
};

// Churn (one remove + one add mid-stream) + bounded disorder + a resize
// schedule; returns per-query results keyed by stable creation tags.
SessionResults RunElasticSession(uint32_t initial_shards,
                                 const std::vector<Event>& events,
                                 const std::vector<ResizeAt>& resizes,
                                 TimeT max_delay,
                                 std::vector<Event>* late_out,
                                 StreamSession::SessionStats* stats_out) {
  StreamSession::Options options;
  options.num_keys = 8;
  options.num_shards = initial_shards;
  options.max_delay = max_delay;
  if (late_out != nullptr) {
    options.late_policy = StreamSession::LatePolicy::kSideOutput;
    options.late_callback = [late_out](const Event& e) {
      late_out->push_back(e);
    };
  }
  StreamSession session(options);

  SessionResults results;
  EXPECT_TRUE(
      session.AddQuery(PerDevice(20).Hopping(60, 20), Tagged(&results, 0))
          .ok());
  Result<QueryId> doomed = session.AddQuery(PerDevice(80));
  EXPECT_TRUE(doomed.ok());

  const size_t third = events.size() / 3;
  size_t next_resize = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    while (next_resize < resizes.size() &&
           i == resizes[next_resize].at_event) {
      EXPECT_TRUE(session.Resize(resizes[next_resize].shards).ok());
      ++next_resize;
    }
    if (i == third) {
      EXPECT_TRUE(session.RemoveQuery(*doomed).ok());
    }
    if (i == 2 * third) {
      EXPECT_TRUE(
          session.AddQuery(PerDevice(40), Tagged(&results, 1)).ok());
    }
    EXPECT_TRUE(session.Push(events[i]).ok());
  }
  EXPECT_TRUE(session.Finish().ok());
  if (stats_out != nullptr) *stats_out = session.Stats();
  return results;
}

TEST(SessionResize, ResizedChurnedDisorderedSessionMatchesFixedShardRuns) {
  constexpr TimeT kMaxDelay = 32;
  std::vector<Event> sorted = GenerateSyntheticStream(12000, 8, 54);
  // Displacement past the tolerance: some events go late, and the late
  // set must be resize-invariant too.
  std::vector<Event> events = ApplyBoundedDisorder(sorted, 64, 55);

  std::vector<Event> baseline_late;
  StreamSession::SessionStats baseline_stats;
  SessionResults baseline = RunElasticSession(
      1, events, {}, kMaxDelay, &baseline_late, &baseline_stats);
  ASSERT_FALSE(baseline.empty());
  EXPECT_GT(baseline_stats.late_events, 0u);

  std::vector<Event> fixed4_late;
  SessionResults fixed4 =
      RunElasticSession(4, events, {}, kMaxDelay, &fixed4_late, nullptr);
  ExpectSameResults(fixed4, baseline, "fixed 4-shard");

  // The acceptance schedule: 1 -> 4 -> 2 mid-stream, interleaved with the
  // churn points, under active disorder.
  std::vector<Event> resized_late;
  StreamSession::SessionStats resized_stats;
  SessionResults resized = RunElasticSession(
      1, events,
      {{events.size() / 4, 4}, {events.size() / 2, 2}}, kMaxDelay,
      &resized_late, &resized_stats);
  ExpectSameResults(resized, baseline, "resized 1->4->2");
  EXPECT_EQ(resized_stats.resize_count, 2u);
  EXPECT_EQ(resized_stats.num_shards, 2u);
  EXPECT_EQ(resized_stats.late_events, baseline_stats.late_events);
  EXPECT_EQ(resized_stats.lifetime_ops, baseline_stats.lifetime_ops);

  ASSERT_EQ(resized_late.size(), baseline_late.size());
  for (size_t i = 0; i < resized_late.size(); ++i) {
    EXPECT_EQ(resized_late[i].timestamp, baseline_late[i].timestamp);
    EXPECT_EQ(resized_late[i].key, baseline_late[i].key);
    EXPECT_EQ(resized_late[i].value, baseline_late[i].value);
  }
  ASSERT_EQ(fixed4_late.size(), baseline_late.size());
}

TEST(SessionResize, IdleResizeTakesEffectOnRevival) {
  StreamSession::Options options;
  options.num_keys = 8;
  StreamSession session(options);
  // No pipeline yet: the resize is recorded and shapes the next one.
  ASSERT_TRUE(session.Resize(4).ok());
  EXPECT_EQ(session.Stats().resize_count, 1u);
  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());
  EXPECT_EQ(session.Stats().num_shards, 4u);
}

TEST(SessionResize, ValidatesArguments) {
  StreamSession session({.num_keys = 8});
  EXPECT_EQ(session.Resize(0).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_FALSE(session.Resize(2).ok());  // Read-only after Finish.
  EXPECT_EQ(session.Stats().resize_count, 0u);
}

// The elasticity invariant for registry aggregates beyond the classic
// built-ins: mid-stream 1 -> 4 -> 2 with churn and active disorder emits
// bitwise what fixed-shard runs emit — including the out-of-line sketch
// states (P99, DISTINCT_COUNT), whose payloads ride through checkpoint
// canonicalization, lineage migration, and shard merge/split, and the
// order-sensitive FIRST/LAST merges.
class UdafElasticity : public ::testing::TestWithParam<const char*> {};

TEST_P(UdafElasticity, ResizedChurnedDisorderedRunMatchesFixedShards) {
  const char* agg = GetParam();
  constexpr TimeT kMaxDelay = 32;
  std::vector<Event> sorted = GenerateSyntheticStream(9000, 8, 77);
  // Displacement past the tolerance: some events go genuinely late.
  std::vector<Event> events = ApplyBoundedDisorder(sorted, 48, 78);

  auto dash = [&](TimeT range) {
    return Query().Aggregate(agg, "v").From("fleet").PerKey("device")
        .Tumbling(range);
  };
  auto run = [&](uint32_t initial_shards,
                 const std::vector<ResizeAt>& resizes,
                 StreamSession::SessionStats* stats_out) {
    StreamSession::Options options;
    options.num_keys = 8;
    options.num_shards = initial_shards;
    options.max_delay = kMaxDelay;
    StreamSession session(options);
    SessionResults results;
    EXPECT_TRUE(session.AddQuery(dash(20).Hopping(60, 20),
                                 Tagged(&results, 0)).ok());
    Result<QueryId> doomed = session.AddQuery(dash(80));
    EXPECT_TRUE(doomed.ok());
    const size_t third = events.size() / 3;
    size_t next_resize = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      while (next_resize < resizes.size() &&
             i == resizes[next_resize].at_event) {
        EXPECT_TRUE(session.Resize(resizes[next_resize].shards).ok());
        ++next_resize;
      }
      if (i == third) {
        EXPECT_TRUE(session.RemoveQuery(*doomed).ok());
      }
      if (i == 2 * third) {
        EXPECT_TRUE(
            session.AddQuery(dash(40), Tagged(&results, 1)).ok());
      }
      EXPECT_TRUE(session.Push(events[i]).ok());
    }
    EXPECT_TRUE(session.Finish().ok());
    if (stats_out != nullptr) *stats_out = session.Stats();
    return results;
  };

  StreamSession::SessionStats baseline_stats;
  SessionResults baseline = run(1, {}, &baseline_stats);
  ASSERT_FALSE(baseline.empty());
  EXPECT_GT(baseline_stats.late_events, 0u);

  SessionResults fixed4 = run(4, {}, nullptr);
  ExpectSameResults(fixed4, baseline, "fixed 4-shard");

  StreamSession::SessionStats resized_stats;
  SessionResults resized = run(
      1, {{events.size() / 4, 4}, {events.size() / 2, 2}}, &resized_stats);
  ExpectSameResults(resized, baseline, "resized 1->4->2");
  EXPECT_EQ(resized_stats.resize_count, 2u);
  EXPECT_EQ(resized_stats.late_events, baseline_stats.late_events);
  EXPECT_EQ(resized_stats.lifetime_ops, baseline_stats.lifetime_ops);
}

INSTANTIATE_TEST_SUITE_P(RegistryFunctions, UdafElasticity,
                         ::testing::Values("P99", "DISTINCT_COUNT", "FIRST",
                                           "LAST"));

// --- Stats lifecycle across executor swaps ---------------------------------

// The SessionStats contract (see session.h): cumulative counters survive
// every kind of executor swap — replan, resize, idle-retire/revive —
// without resets or double counting. This regression drives one session
// through all three and cross-checks against an unchurned oracle.
TEST(StatsLifecycle, CumulativeCountersSurviveReplanResizeAndIdle) {
  constexpr TimeT kMaxDelay = 16;
  constexpr uint32_t kKeys = 8;
  std::vector<Event> sorted = GenerateSyntheticStream(6000, kKeys, 56);
  std::vector<Event> events = ApplyBoundedDisorder(sorted, 48, 57);

  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  options.max_delay = kMaxDelay;
  uint64_t late_seen = 0;
  options.late_policy = StreamSession::LatePolicy::kSideOutput;
  options.late_callback = [&late_seen](const Event&) { ++late_seen; };
  StreamSession session(options);

  SessionResults results;
  ASSERT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());

  uint64_t last_late = 0;
  uint64_t last_ops = 0;
  uint64_t last_peak = 0;
  auto expect_monotone = [&] {
    StreamSession::SessionStats stats = session.Stats();
    EXPECT_GE(stats.late_events, last_late);
    EXPECT_GE(stats.lifetime_ops, last_ops);
    EXPECT_GE(stats.reorder_buffer_peak, last_peak);
    EXPECT_EQ(stats.late_events, late_seen);  // Never double-counted.
    last_late = stats.late_events;
    last_ops = stats.lifetime_ops;
    last_peak = stats.reorder_buffer_peak;
  };

  const size_t fifth = events.size() / 5;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == fifth) {  // Replan swap.
      ASSERT_TRUE(
          session.AddQuery(PerDevice(40), Tagged(&results, 1)).ok());
      expect_monotone();
    }
    if (i == 2 * fifth) {  // Resize swap (up).
      ASSERT_TRUE(session.Resize(4).ok());
      expect_monotone();
    }
    if (i == 3 * fifth) {  // Resize swap (down to inline).
      ASSERT_TRUE(session.Resize(1).ok());
      expect_monotone();
    }
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  expect_monotone();
  ASSERT_TRUE(session.Finish().ok());
  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.late_events, late_seen);
  EXPECT_EQ(stats.events_pushed, events.size());
  EXPECT_EQ(stats.resize_count, 2u);
}

// An idle-retire (last query removed) retires the pipeline's counters
// into the session tallies; revival must not lose or re-add them.
TEST(StatsLifecycle, IdleRetireAndRevivalKeepCumulativeTallies) {
  constexpr TimeT kMaxDelay = 8;
  StreamSession::Options options;
  options.num_keys = 4;
  options.num_shards = 2;
  options.max_delay = kMaxDelay;
  StreamSession session(options);

  Result<QueryId> only = session.AddQuery(PerDevice(20));
  ASSERT_TRUE(only.ok());
  // Establish a watermark at 100, then land one late event.
  ASSERT_TRUE(session.Push({.timestamp = 100, .key = 0, .value = 1.0}).ok());
  ASSERT_TRUE(session.Push({.timestamp = 10, .key = 1, .value = 2.0}).ok());
  StreamSession::SessionStats before = session.Stats();
  EXPECT_EQ(before.late_events, 1u);

  ASSERT_TRUE(session.RemoveQuery(*only).ok());  // Idle-retire swap.
  StreamSession::SessionStats idle = session.Stats();
  EXPECT_EQ(idle.late_events, 1u);
  EXPECT_GE(idle.reorder_buffer_peak, before.reorder_buffer_peak);
  EXPECT_TRUE(idle.events_per_shard.empty());  // Topology-scoped: gone.

  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());  // Revival.
  EXPECT_EQ(session.Stats().late_events, 1u);  // Not re-counted.
  EXPECT_EQ(session.Stats().lifetime_ops, idle.lifetime_ops);
}

// Regression: ring occupancy is scoped to the *live* pipeline, so once
// the session goes idle (last query removed) or finishes, both the
// SessionStats field and the published telemetry gauge must read 0 —
// not the last sample taken while the retired executor was loaded.
TEST(StatsLifecycle, RingOccupancyZeroesOnIdleRetireAndFinish) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(4000, kKeys, 71);
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 4;
  // Force the load monitor to sample occupancy continuously (thresholds
  // that never trigger a resize), so the gauge has a live value to go
  // stale from.
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 4;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 512;
  StreamSession session(options);
  Result<QueryId> only = session.AddQuery(PerDevice(20));
  ASSERT_TRUE(only.ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());

  ASSERT_TRUE(session.RemoveQuery(*only).ok());  // Idle-retire swap.
  StreamSession::SessionMetrics idle = session.Metrics();
  EXPECT_EQ(idle.stats.ring_occupancy, 0.0);
  EXPECT_EQ(idle.telemetry.gauges.at("session.ring_occupancy"), 0.0);

  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());  // Revival.
  ASSERT_TRUE(session.Finish().ok());
  StreamSession::SessionMetrics done = session.Metrics();
  EXPECT_EQ(done.stats.ring_occupancy, 0.0);
  EXPECT_EQ(done.telemetry.gauges.at("session.ring_occupancy"), 0.0);
}

// --- Observability: per-shard counters and ring occupancy ------------------

TEST(Observability, EventsPerShardSumToDeliveredEvents) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(5000, kKeys, 58);
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 4;
  StreamSession session(options);
  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());

  StreamSession::SessionStats stats = session.Stats();
  ASSERT_EQ(stats.events_per_shard.size(), 4u);
  uint64_t total = 0;
  uint32_t loaded_shards = 0;
  for (uint64_t c : stats.events_per_shard) {
    total += c;
    if (c > 0) ++loaded_shards;
  }
  EXPECT_EQ(total, events.size());  // Strict mode: all delivered.
  EXPECT_GT(loaded_shards, 1u);     // The hash actually spreads keys.
  EXPECT_GE(stats.ring_occupancy, 0.0);
  EXPECT_LE(stats.ring_occupancy, 1.0);
  ASSERT_TRUE(session.Finish().ok());
}

// --- Auto-resize policy ----------------------------------------------------

// Forced thresholds make the policy deterministic: scale_up_occupancy 0
// means every sample reads "overloaded".
TEST(AutoResize, ScalesUpToMaxUnderForcedHighOccupancy) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(4000, kKeys, 59);
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 1;
  options.auto_resize.enabled = true;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 512;
  options.auto_resize.scale_up_occupancy = 0.0;
  options.auto_resize.scale_down_occupancy = -1.0;  // Never down.
  StreamSession session(options);

  SessionResults results;
  ASSERT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.num_shards, 4u);  // 1 -> 2 -> 4.
  EXPECT_EQ(stats.resize_count, 2u);
  EXPECT_GT(stats.last_resize_ns, 0u);

  // Exactness is unconditional: the auto-resized run matches 1-shard.
  StreamSession::Options plain;
  plain.num_keys = kKeys;
  StreamSession reference(plain);
  SessionResults expected;
  ASSERT_TRUE(reference.AddQuery(PerDevice(20), Tagged(&expected, 0)).ok());
  for (const Event& event : events) ASSERT_TRUE(reference.Push(event).ok());
  ASSERT_TRUE(reference.Finish().ok());
  EXPECT_EQ(results, expected);
}

TEST(AutoResize, ScalesDownWhenRingsSitEmpty) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(6000, kKeys, 60);
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 4;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 1;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 512;
  options.auto_resize.scale_up_occupancy = 2.0;    // Never up.
  options.auto_resize.scale_down_occupancy = 1.0;  // Always "idle".
  options.auto_resize.scale_down_checks = 2;
  StreamSession session(options);

  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  // 4 -> 2 and no further: the monitor never steers into inline mode,
  // where the occupancy signal would vanish and it could never recover.
  EXPECT_EQ(stats.num_shards, 2u);
  EXPECT_EQ(stats.resize_count, 1u);
}

TEST(AutoResize, ClampsASessionBelowMinShardsIntoRange) {
  constexpr uint32_t kKeys = 8;
  std::vector<Event> events = GenerateSyntheticStream(2000, kKeys, 61);
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 1;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 2;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 256;
  options.auto_resize.scale_up_occupancy = 2.0;     // Never up by load.
  options.auto_resize.scale_down_occupancy = -1.0;  // Never down.
  StreamSession session(options);

  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().num_shards, 2u);  // The clamp, nothing more.
  EXPECT_EQ(session.Stats().resize_count, 1u);
}

TEST(AutoResize, KeylessSessionNeverChurnsExecutors) {
  // One key = one effective shard forever; the policy must not burn
  // resize_count on swaps that cannot change the width.
  std::vector<Event> events = GenerateSyntheticStream(3000, 1, 62);
  StreamSession::Options options;
  options.num_keys = 1;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 1;
  options.auto_resize.max_shards = 8;
  options.monitor_interval = 256;
  options.auto_resize.scale_up_occupancy = 0.0;  // Begs to scale up.
  StreamSession session(options);
  ASSERT_TRUE(
      session.AddQuery(Query().Max("v").From("fleet").Tumbling(20)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().num_shards, 1u);
  EXPECT_EQ(session.Stats().resize_count, 0u);
}

// --- Runtime-adaptive optimization (DESIGN.md §15) --------------------------

// Deterministic drifting workload: a dense phase (8 events per time
// unit), a trough (one event every 4 units), then dense again. The
// monitors read the *event-time* rate, so the trajectory they steer is
// a pure function of this stream — reproducible run to run, and
// identical across ingestion paths and shard counts.
std::vector<Event> DriftingStream(size_t dense1, size_t trough,
                                  size_t dense2, uint32_t keys) {
  std::vector<Event> events;
  events.reserve(dense1 + trough + dense2);
  auto push = [&](TimeT ts) {
    Event e;
    e.timestamp = ts;
    e.key = static_cast<uint32_t>(events.size() % keys);
    e.value = static_cast<double>(events.size() % 997);
    events.push_back(e);
  };
  for (size_t i = 0; i < dense1; ++i) push(static_cast<TimeT>(i / 8));
  const TimeT base = static_cast<TimeT>(dense1 / 8) + 1;
  for (size_t i = 0; i < trough; ++i) {
    push(base + static_cast<TimeT>(i) * 4);
  }
  const TimeT base2 = base + static_cast<TimeT>(trough) * 4;
  for (size_t i = 0; i < dense2; ++i) {
    push(base2 + static_cast<TimeT>(i / 8));
  }
  return events;
}

int CountFactorOps(const QueryPlan& plan) {
  int count = 0;
  for (const PlanOperator& op : plan.operators()) {
    count += op.is_factor ? 1 : 0;
  }
  return count;
}

// The acceptance scenario for the throughput signal: a trough takes the
// session all the way into inline (1-shard) mode, and the spike after it
// scales back out — something the occupancy-only monitor structurally
// cannot do (there are no rings at 1 shard, so occupancy reads 0
// forever). Occupancy thresholds are neutralized so every decision is
// rate-driven, hence deterministic.
TEST(AutoResize, RateSignalScalesDownToInlineAndBackOut) {
  constexpr uint32_t kKeys = 16;
  const std::vector<Event> events = DriftingStream(8000, 3000, 8000, kKeys);

  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 4;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 1;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 512;
  options.auto_resize.scale_up_occupancy = 2.0;    // Never up by load.
  options.auto_resize.scale_down_occupancy = 1.0;  // Always cold-eligible.
  options.auto_resize.scale_down_checks = 2;
  options.auto_resize.target_rate_per_shard = 1.0;
  // A sharp EWMA so the estimate tracks each phase change within a few
  // monitor samples.
  options.adaptive.rate_alpha = 0.7;
  StreamSession session(options);
  SessionResults results;
  ASSERT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());

  uint32_t min_width = 4;
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
    if (i % 256 == 255) {
      min_width = std::min(min_width, session.Stats().num_shards);
    }
  }
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(min_width, 1u);         // Trough: 4 -> 2 -> 1.
  EXPECT_EQ(stats.num_shards, 4u);  // Spike: 1 -> 2 -> 4.
  EXPECT_GE(stats.resize_count, 4u);
  EXPECT_GT(stats.observed_eta, 1.0);  // Back in the dense phase.

  // The elasticity invariant is unconditional: however the monitor
  // steered, the output is bitwise what fixed-shard sessions emit.
  auto reference = [&](uint32_t shards) {
    StreamSession::Options plain;
    plain.num_keys = kKeys;
    plain.num_shards = shards;
    StreamSession ref(plain);
    SessionResults out;
    EXPECT_TRUE(ref.AddQuery(PerDevice(20), Tagged(&out, 0)).ok());
    for (const Event& e : events) EXPECT_TRUE(ref.Push(e).ok());
    EXPECT_TRUE(ref.Finish().ok());
    return out;
  };
  ExpectSameResults(results, reference(1), "rate-resized vs inline");
  ExpectSameResults(results, reference(4), "rate-resized vs fixed 4-shard");
}

TEST(AutoResize, RateSignalScalesOutOfInlineMode) {
  // From a standing start at 1 shard: occupancy reads 0 (no rings), so
  // only the throughput signal can justify scaling out of inline mode.
  constexpr uint32_t kKeys = 16;
  const std::vector<Event> events = DriftingStream(4000, 0, 0, kKeys);

  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = 1;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 1;
  options.auto_resize.max_shards = 4;
  options.monitor_interval = 256;
  options.auto_resize.scale_up_occupancy = 2.0;     // Occupancy can't help.
  options.auto_resize.scale_down_occupancy = -1.0;  // Never down.
  options.auto_resize.target_rate_per_shard = 1.0;
  StreamSession session(options);
  SessionResults results;
  ASSERT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());
  for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.num_shards, 4u);  // η̂ = 8 over target 1: 1 -> 2 -> 4.
  EXPECT_EQ(stats.resize_count, 2u);

  StreamSession::Options plain;
  plain.num_keys = kKeys;
  StreamSession ref(plain);
  SessionResults expected;
  ASSERT_TRUE(ref.AddQuery(PerDevice(20), Tagged(&expected, 0)).ok());
  for (const Event& e : events) ASSERT_TRUE(ref.Push(e).ok());
  ASSERT_TRUE(ref.Finish().ok());
  ExpectSameResults(results, expected, "rate scale-out vs inline");
}

TEST(AutoResize, KeylessClampProposalsAreVetoedNotChurned) {
  // Regression: a width below min_shards is clamped back into range
  // *through the same veto guards* as any other proposal. One key means
  // one effective shard forever, so the clamp to min_shards = 4 can
  // never change the width — it must be vetoed without burning an
  // executor swap (the old guard ordering let the clamp bypass the
  // width no-op check and churn the executor every sample).
  std::vector<Event> events = GenerateSyntheticStream(3000, 1, 64);
  StreamSession::Options options;
  options.num_keys = 1;
  options.auto_resize.enabled = true;
  options.auto_resize.min_shards = 4;
  options.auto_resize.max_shards = 8;
  options.monitor_interval = 256;
  options.auto_resize.scale_up_occupancy = 2.0;
  options.auto_resize.scale_down_occupancy = -1.0;
  StreamSession session(options);
  ASSERT_TRUE(
      session.AddQuery(Query().Max("v").From("fleet").Tumbling(20)).ok());
  for (const Event& event : events) ASSERT_TRUE(session.Push(event).ok());
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().num_shards, 1u);
  EXPECT_EQ(session.Stats().resize_count, 0u);
}

// The drift detector closing the paper's §VI loop mid-stream: Example
// 7's window set {T(20), T(30), T(40)} gains a factor window T(10) at
// the planning default η = 1, but at η ≈ 0.05 raw reads are so cheap
// that sharing stops paying (the RateAwareOptimizer tests in
// tests/adaptive_test.cc pin the optimizer half). Feeding the session a
// genuinely sparse stream must trigger an observed-η replan that evicts
// the factor window — through the dual-pipeline crossover, with output
// bitwise identical to a static-plan session.
TEST(AdaptiveSession, SparseStreamEvictsFactorWindowsBitwise) {
  auto example7 = [] {
    return Query().Sum("v").From("s").Tumbling(20).Tumbling(30).Tumbling(
        40);
  };
  std::vector<Event> events;
  events.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    Event e;
    e.timestamp = static_cast<TimeT>(i) * 20;  // η = 0.05.
    e.key = 0;
    e.value = static_cast<double>(i % 313);
    events.push_back(e);
  }

  StreamSession::Options options;
  options.num_keys = 1;
  options.adaptive.enabled = true;
  options.monitor_interval = 256;
  options.adaptive.rate_alpha = 0.5;
  options.adaptive.reoptimize_ratio = 2.0;
  options.adaptive.min_events_between_replans = 1024;
  StreamSession session(options);
  SessionResults results;
  ASSERT_TRUE(session.AddQuery(example7(), Tagged(&results, 0)).ok());
  ASSERT_NE(session.shared_plan(), nullptr);
  ASSERT_EQ(CountFactorOps(*session.shared_plan()), 1);  // Planned at η=1.

  for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_GE(stats.drift_replans, 1);
  EXPECT_NEAR(stats.planned_eta, 0.05, 0.01);
  EXPECT_NEAR(stats.observed_eta, 0.05, 0.01);
  EXPECT_EQ(stats.replans, 1);  // Drift replans never count as churn.
  ASSERT_NE(session.shared_plan(), nullptr);
  EXPECT_EQ(CountFactorOps(*session.shared_plan()), 0);  // Evicted.
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionMetrics metrics = session.Metrics();
  EXPECT_GE(metrics.telemetry.counters.at("session.drift_replans"), 1u);

  StreamSession::Options plain;
  plain.num_keys = 1;
  StreamSession oracle(plain);
  SessionResults expected;
  ASSERT_TRUE(oracle.AddQuery(example7(), Tagged(&expected, 0)).ok());
  for (const Event& e : events) ASSERT_TRUE(oracle.Push(e).ok());
  ASSERT_TRUE(oracle.Finish().ok());
  ExpectSameResults(results, expected, "drift replan vs static plan");
}

// --- Crossover exits --------------------------------------------------------

// Every call that ends a drift crossover early, made on the event where
// the plan loses its factor window (the crossover retires two events
// later, once the watermark passes the old plan's last T(40) instance).
enum class CrossoverExit {
  kAddQuery,
  kRemoveOneOfTwo,
  kRemoveOnlyThenReAdd,
  kMetricsAndStats,
  kFinish,
};

const char* ExitName(CrossoverExit exit) {
  switch (exit) {
    case CrossoverExit::kAddQuery: return "AddQuery";
    case CrossoverExit::kRemoveOneOfTwo: return "RemoveQuery of one of two";
    case CrossoverExit::kRemoveOnlyThenReAdd: return "RemoveQuery of the only";
    case CrossoverExit::kMetricsAndStats: return "Metrics and Stats";
    case CrossoverExit::kFinish: return "Finish";
  }
  return "?";
}

struct ExitRun {
  SessionResults results;
  uint64_t delivered = 0;
  StreamSession::SessionStats stats;
  uint64_t finalized_total = 0;
  /// Index of the event the exit call followed.
  size_t acted_at = 0;
  /// Timestamps of the churn calls (removal/addition, then re-addition).
  std::vector<TimeT> churn_at;
  /// The trace as of the exit call's completion (kMetricsAndStats) or of
  /// the end of the run (every other exit).
  std::vector<telemetry::TraceEvent> trace;
};

constexpr size_t kActOnFlip = static_cast<size_t>(-1);

// The η = 0.05 stream of SparseStreamEvictsFactorWindowsBitwise over 4
// keys. With act_at = kActOnFlip (adaptive sessions) the exit call follows
// the first event after which the plan holds no factor window; otherwise
// it follows event act_at.
ExitRun RunCrossoverExit(CrossoverExit exit, uint32_t shards, bool adaptive,
                         size_t act_at) {
  constexpr uint32_t kKeys = 4;
  constexpr size_t kReAddAfter = 500;
  auto example7 = [] {
    return Query().Sum("v").From("s").PerKey("k").Tumbling(20).Tumbling(30)
        .Tumbling(40);
  };
  std::vector<Event> events;
  for (int i = 0; i < 4000; ++i) {
    events.push_back(Event{static_cast<TimeT>(i) * 20,
                           static_cast<uint32_t>(i) % kKeys,
                           static_cast<double>(i % 313)});
  }
  StreamSession::Options options;
  options.num_keys = kKeys;
  options.num_shards = shards;
  options.adaptive.enabled = adaptive;
  options.monitor_interval = 256;
  options.adaptive.rate_alpha = 0.5;
  options.adaptive.reoptimize_ratio = 2.0;
  options.adaptive.min_events_between_replans = 1024;
  StreamSession session(options);

  ExitRun run;
  auto callback = [&run](int tag) {
    StreamSession::ResultCallback tagged = Tagged(&run.results, tag);
    return [&run, tagged](const WindowResult& r) {
      ++run.delivered;
      tagged(r);
    };
  };
  Result<QueryId> first = session.AddQuery(example7(), callback(0));
  EXPECT_TRUE(first.ok());
  Result<QueryId> second = Status::NotFound("no second query");
  if (exit == CrossoverExit::kRemoveOneOfTwo) {
    second = session.AddQuery(
        Query().Sum("v").From("s").PerKey("k").Tumbling(60).Tumbling(80),
        callback(1));
    EXPECT_TRUE(second.ok());
  }
  EXPECT_EQ(CountFactorOps(*session.shared_plan()), 1);  // Planned at η=1.

  bool acted = false;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(session.Push(events[i]).ok());
    if (!acted) {
      const bool flipped = CountFactorOps(*session.shared_plan()) == 0;
      if (act_at == kActOnFlip ? !flipped : i != act_at) continue;
      acted = true;
      run.acted_at = i;
      const TimeT now = events[i].timestamp;
      switch (exit) {
        case CrossoverExit::kAddQuery:
          EXPECT_TRUE(session
                          .AddQuery(Query().Sum("v").From("s").PerKey("k")
                                        .Tumbling(60).Tumbling(80),
                                    callback(1))
                          .ok());
          run.churn_at.push_back(now);
          break;
        case CrossoverExit::kRemoveOneOfTwo:
          EXPECT_TRUE(session.RemoveQuery(*second).ok());
          run.churn_at.push_back(now);
          break;
        case CrossoverExit::kRemoveOnlyThenReAdd:
          EXPECT_TRUE(session.RemoveQuery(*first).ok());
          run.churn_at.push_back(now);
          break;
        case CrossoverExit::kMetricsAndStats: {
          // Mid-crossover: both pipelines' ops, read once per pipeline.
          StreamSession::SessionMetrics metrics = session.Metrics();
          StreamSession::SessionStats stats = session.Stats();
          EXPECT_EQ(metrics.stats.lifetime_ops, stats.lifetime_ops);
          EXPECT_EQ(metrics.stats.events_pushed, i + 1);
          EXPECT_EQ(metrics.operators.size(),
                    session.shared_plan()->num_operators());
          run.trace = metrics.telemetry.trace;
          break;
        }
        case CrossoverExit::kFinish:
          EXPECT_TRUE(session.Finish().ok());
          break;
      }
      if (exit == CrossoverExit::kFinish) break;
      continue;
    }
    if (exit == CrossoverExit::kRemoveOnlyThenReAdd &&
        i == run.acted_at + kReAddAfter) {
      EXPECT_TRUE(session.AddQuery(example7(), callback(2)).ok());
      run.churn_at.push_back(events[i].timestamp);
    }
  }
  EXPECT_TRUE(acted) << "the plan never lost its factor window";
  EXPECT_TRUE(session.Finish().ok());
  run.stats = session.Stats();
  StreamSession::SessionMetrics metrics = session.Metrics();
  // Metrics() takes lifetime_ops from its per-operator read, Stats() from
  // the executors' totals: the two must agree.
  EXPECT_EQ(metrics.stats.lifetime_ops, run.stats.lifetime_ops);
  run.finalized_total = metrics.finalized_results_total;
  if (exit != CrossoverExit::kMetricsAndStats) {
    run.trace = metrics.telemetry.trace;
  }
  return run;
}

// Drops the results of windows open across a churn call: operators the
// two plans do not share start cold there.
SessionResults WithoutStraddlers(const SessionResults& results,
                                 const std::vector<TimeT>& churn_at) {
  SessionResults kept;
  for (const auto& [key, value] : results) {
    const TimeT start = std::get<2>(key);
    const TimeT end = std::get<3>(key);
    bool straddles = false;
    for (TimeT t : churn_at) straddles |= start <= t && t < end;
    if (!straddles) kept.emplace(key, value);
  }
  return kept;
}

// True when the first structural drift replan in `trace` is followed by
// `kind` before the crossover it started completed.
bool ExitedMidCrossover(const std::vector<telemetry::TraceEvent>& trace,
                        telemetry::TraceKind kind) {
  bool in_flight = false;
  for (const telemetry::TraceEvent& event : trace) {
    if (event.kind == telemetry::TraceKind::kDriftReplan && event.a == 1) {
      in_flight = true;
    } else if (in_flight && event.kind == kind) {
      return true;
    } else if (event.kind == telemetry::TraceKind::kCrossoverDone) {
      return false;
    }
  }
  return in_flight && kind == telemetry::TraceKind::kDriftReplan;
}

// Each early exit of a crossover folds it back into the one pipeline a
// static-plan session runs: results match that session's bitwise (but for
// windows open across a churn call), the session counters agree with it,
// and the work and finalize tallies do not depend on the shard count.
TEST(CrossoverExit, EveryExitMatchesAStaticSessionAtOneAndTwoShards) {
  for (CrossoverExit exit :
       {CrossoverExit::kAddQuery, CrossoverExit::kRemoveOneOfTwo,
        CrossoverExit::kRemoveOnlyThenReAdd, CrossoverExit::kMetricsAndStats,
        CrossoverExit::kFinish}) {
    SCOPED_TRACE(ExitName(exit));
    std::vector<ExitRun> drifted;
    for (uint32_t shards : {1u, 2u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      drifted.push_back(RunCrossoverExit(exit, shards, true, kActOnFlip));
      const ExitRun& run = drifted.back();
      const ExitRun oracle =
          RunCrossoverExit(exit, shards, false, run.acted_at);
      ASSERT_EQ(run.churn_at, oracle.churn_at);
      ExpectSameResults(WithoutStraddlers(run.results, run.churn_at),
                        WithoutStraddlers(oracle.results, oracle.churn_at),
                        "crossover exit vs static session");
      EXPECT_GT(run.delivered, 0u);
      EXPECT_EQ(run.stats.events_pushed, oracle.stats.events_pushed);
      EXPECT_EQ(run.stats.events_dropped, oracle.stats.events_dropped);
      EXPECT_EQ(run.stats.late_events, oracle.stats.late_events);
      EXPECT_EQ(run.stats.replans, oracle.stats.replans);
      EXPECT_GE(run.stats.drift_replans, 1);
      switch (exit) {
        case CrossoverExit::kAddQuery:
        case CrossoverExit::kRemoveOneOfTwo:
          EXPECT_TRUE(ExitedMidCrossover(run.trace,
                                         telemetry::TraceKind::kReplan));
          break;
        case CrossoverExit::kRemoveOnlyThenReAdd:
          EXPECT_TRUE(ExitedMidCrossover(run.trace,
                                         telemetry::TraceKind::kIdleRetire));
          EXPECT_EQ(run.stats.events_dropped, 500u);
          break;
        case CrossoverExit::kMetricsAndStats:
          EXPECT_TRUE(ExitedMidCrossover(run.trace,
                                         telemetry::TraceKind::kDriftReplan));
          break;
        case CrossoverExit::kFinish:
          EXPECT_EQ(run.stats.events_pushed, run.acted_at + 1);
          break;
      }
    }
    ASSERT_EQ(drifted.size(), 2u);
    EXPECT_EQ(drifted[0].acted_at, drifted[1].acted_at);
    EXPECT_EQ(drifted[0].stats.lifetime_ops, drifted[1].stats.lifetime_ops);
    EXPECT_EQ(drifted[0].finalized_total, drifted[1].finalized_total);
    EXPECT_EQ(drifted[0].delivered, drifted[1].delivered);
  }
}

// Removing the last query retires the pipeline the way churn does: its
// checkpoint closes every complete window, so delivery cannot depend on
// the shard count. (A shard's engine closes an instance only when the
// next event for one of its own keys arrives; here keys 1–3 fall silent
// at t = 100, and only key 0 runs on to t = 129.)
TEST(IdleRetire, DeliversEveryCompleteWindowAtAnyWidth) {
  for (TimeT max_delay : {TimeT{0}, TimeT{8}}) {
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("max_delay " + std::to_string(max_delay) + ", " +
                   std::to_string(shards) + " shards");
      StreamSession::Options options;
      options.num_keys = 4;
      options.num_shards = shards;
      options.max_delay = max_delay;
      StreamSession session(options);
      SessionResults results;
      Result<QueryId> only = session.AddQuery(PerDevice(20),
                                              Tagged(&results, 0));
      ASSERT_TRUE(only.ok());
      for (TimeT t = 0; t < 130; ++t) {
        const uint32_t key = t < 100 ? static_cast<uint32_t>(t % 4) : 0;
        ASSERT_TRUE(
            session.Push({.timestamp = t, .key = key, .value = 1.0}).ok());
      }
      ASSERT_TRUE(session.RemoveQuery(*only).ok());
      // Five windows of [0, 100) per key, plus key 0's [100, 120).
      EXPECT_EQ(results.size(), 21u);
      EXPECT_EQ(session.Metrics().finalized_results_total, 21u);
    }
  }
}

TEST(AdaptiveSession, RecostOnlyDriftAdoptsTheObservedRateInPlace) {
  // A single-window plan has no sharing decision to flip: drift still
  // replans (the costs self-correct to the observed η) but the
  // structure — and therefore the pipeline and the plan object — stays
  // put. No crossover, no churn, no resize.
  constexpr uint32_t kKeys = 4;
  const std::vector<Event> events = DriftingStream(4000, 0, 0, kKeys);

  StreamSession::Options options;
  options.num_keys = kKeys;
  options.adaptive.enabled = true;
  options.monitor_interval = 256;
  options.adaptive.rate_alpha = 1.0;
  options.adaptive.reoptimize_ratio = 2.0;
  options.adaptive.min_events_between_replans = 1024;
  StreamSession session(options);
  SessionResults results;
  ASSERT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());
  const QueryPlan* plan_before = session.shared_plan();
  ASSERT_NE(plan_before, nullptr);
  const double cost_before = session.Stats().shared_cost;

  for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_GE(stats.drift_replans, 1);
  EXPECT_NEAR(stats.planned_eta, 8.0, 0.2);
  EXPECT_EQ(session.shared_plan(), plan_before);  // Recost in place.
  EXPECT_EQ(stats.replans, 1);
  EXPECT_EQ(stats.resize_count, 0u);
  // Raw scans cost η·r: re-costing at η̂ = 8 raises the plan cost.
  EXPECT_GT(stats.shared_cost, cost_before);

  StreamSession::Options plain;
  plain.num_keys = kKeys;
  StreamSession oracle(plain);
  SessionResults expected;
  ASSERT_TRUE(oracle.AddQuery(PerDevice(20), Tagged(&expected, 0)).ok());
  for (const Event& e : events) ASSERT_TRUE(oracle.Push(e).ok());
  ASSERT_TRUE(oracle.Finish().ok());
  ExpectSameResults(results, expected, "recost-only drift vs static");
}

TEST(AdaptiveSession, ColumnarIngestionMatchesScalarMonitorCadence) {
  // Regression: PushColumns used to sample the monitors at most once
  // per batch, so a columnar run made different (fewer) resize and
  // drift decisions than the same stream pushed one event at a time.
  // The monitors now fire mid-batch at exactly the scalar cadence, with
  // the remainder carried across batches — every decision statistic
  // must match bit for bit, not just the results.
  constexpr uint32_t kKeys = 8;
  const std::vector<Event> events = DriftingStream(4000, 1500, 4000, kKeys);

  auto run = [&](bool columnar) {
    StreamSession::Options options;
    options.num_keys = kKeys;
    options.num_shards = 2;
    options.auto_resize.enabled = true;
    options.auto_resize.min_shards = 1;
    options.auto_resize.max_shards = 4;
    options.monitor_interval = 512;
    options.auto_resize.scale_up_occupancy = 2.0;
    options.auto_resize.scale_down_occupancy = 1.0;
    options.auto_resize.scale_down_checks = 2;
    options.auto_resize.target_rate_per_shard = 1.0;
    options.adaptive.enabled = true;
    options.adaptive.rate_alpha = 0.7;
    options.adaptive.reoptimize_ratio = 3.0;
    options.adaptive.min_events_between_replans = 2048;
    StreamSession session(options);
    SessionResults results;
    EXPECT_TRUE(session.AddQuery(PerDevice(20), Tagged(&results, 0)).ok());
    if (columnar) {
      // 97 never divides the 512-event cadence: without the remainder
      // carry, every batch boundary would skew the later samples.
      for (const EventColumns& batch : SplitIntoColumns(events, 97)) {
        EXPECT_TRUE(session.PushColumns(batch).ok());
      }
    } else {
      for (const Event& e : events) EXPECT_TRUE(session.Push(e).ok());
    }
    EXPECT_TRUE(session.Finish().ok());
    return std::make_pair(results, session.Stats());
  };

  auto [scalar_results, scalar_stats] = run(false);
  auto [columnar_results, columnar_stats] = run(true);
  ExpectSameResults(columnar_results, scalar_results, "columnar vs scalar");
  EXPECT_EQ(columnar_stats.resize_count, scalar_stats.resize_count);
  EXPECT_EQ(columnar_stats.drift_replans, scalar_stats.drift_replans);
  EXPECT_EQ(columnar_stats.num_shards, scalar_stats.num_shards);
  EXPECT_DOUBLE_EQ(columnar_stats.observed_eta, scalar_stats.observed_eta);
  EXPECT_DOUBLE_EQ(columnar_stats.planned_eta, scalar_stats.planned_eta);
  EXPECT_EQ(columnar_stats.events_pushed, scalar_stats.events_pushed);
  // The workload actually drives both loops — this is not a vacuous
  // comparison of two idle monitors.
  EXPECT_GE(scalar_stats.resize_count, 1u);
  EXPECT_GE(scalar_stats.drift_replans, 1);
}

// --- Cost model ------------------------------------------------------------

TEST(ResizeGain, TracksEffectiveWidthRatio) {
  StreamQuery q;
  q.source = "s";
  q.agg = Agg("MAX");
  q.per_key = true;
  q.key_column = "k";
  ASSERT_TRUE(q.windows.Add(Window::Tumbling(20)).ok());
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize({q});
  ASSERT_TRUE(shared.ok());
  // 1 -> 4 over 16 keys: 4x the workers on the critical path.
  EXPECT_DOUBLE_EQ(shared->PredictedResizeGain(1, 4, 16), 4.0);
  // 4 -> 8 over 4 keys: both clamp to 4 — no gain, the policy's veto.
  EXPECT_DOUBLE_EQ(shared->PredictedResizeGain(4, 8, 4), 1.0);
  // Narrowing is the reciprocal.
  EXPECT_DOUBLE_EQ(shared->PredictedResizeGain(4, 2, 16), 0.5);
}

}  // namespace
}  // namespace fw
