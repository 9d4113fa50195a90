#include "session/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "exec/engine.h"
#include "harness/experiments.h"
#include "workload/datagen.h"

namespace fw {
namespace {

// Results keyed by (query-local operator, start, end, key) for order-
// insensitive comparison, mirroring CollectingSink::ToMap.
using ResultMap = std::map<std::tuple<int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback CollectInto(ResultMap* map) {
  return [map](const WindowResult& r) {
    (*map)[{r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

ResultMap FilterFrom(const ResultMap& map, TimeT min_start) {
  ResultMap out;
  for (const auto& [key, value] : map) {
    if (std::get<1>(key) >= min_start) out[key] = value;
  }
  return out;
}

QueryBuilder Dashboard(TimeT range) {
  return Query().Min("v").From("telemetry").Tumbling(range);
}

TEST(StreamSession, SingleQueryMatchesOriginalPlan) {
  std::vector<Event> events = GenerateSyntheticStream(6000, 1, 11);

  StreamSession session;
  ResultMap via_session;
  Result<QueryId> id = session.AddQuery(
      Query().Min("v").From("s").Tumbling(20).Hopping(60, 20),
      CollectInto(&via_session));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(session.PushBatch(events).ok());
  ASSERT_TRUE(session.Finish().ok());

  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window::Tumbling(20)).ok());
  ASSERT_TRUE(windows.Add(Window(60, 20)).ok());
  CollectingSink reference;
  ExecutePlan(QueryPlan::Original(windows, Agg("MIN")), events, 1,
              &reference, nullptr, nullptr);
  EXPECT_EQ(via_session, reference.ToMap());
}

TEST(StreamSession, SqlAndBuilderFrontEndsAgree) {
  std::vector<Event> events = GenerateSyntheticStream(4000, 1, 12);

  StreamSession a;
  ResultMap from_sql;
  ASSERT_TRUE(a.AddQuery("SELECT MIN(v) FROM telemetry GROUP BY "
                         "WINDOWS(T(20), T(40))",
                         CollectInto(&from_sql))
                  .ok());
  ASSERT_TRUE(a.PushBatch(events).ok());
  ASSERT_TRUE(a.Finish().ok());

  StreamSession b;
  ResultMap from_builder;
  ASSERT_TRUE(b.AddQuery(Dashboard(20).Tumbling(40),
                         CollectInto(&from_builder))
                  .ok());
  ASSERT_TRUE(b.PushBatch(events).ok());
  ASSERT_TRUE(b.Finish().ok());

  EXPECT_FALSE(from_sql.empty());
  EXPECT_EQ(from_sql, from_builder);
}

// The satellite demux test: two queries subscribe to the same T(40)
// window; the shared plan coalesces it into one operator and the routing
// layer must deliver it to both queries under each query's own local
// numbering.
TEST(StreamSession, DemuxesDuplicateWindowsAcrossQueries) {
  std::vector<Event> events = GenerateSyntheticStream(6000, 1, 13);

  StreamSession session;
  ResultMap q1_results;
  ResultMap q2_results;
  ASSERT_TRUE(session.AddQuery(Dashboard(20).Tumbling(40),
                               CollectInto(&q1_results))
                  .ok());
  ASSERT_TRUE(session.AddQuery(Dashboard(40).Tumbling(60),
                               CollectInto(&q2_results))
                  .ok());
  // 4 subscriptions but only 3 distinct query windows.
  ASSERT_NE(session.shared_plan(), nullptr);
  int query_ops = 0;
  for (const PlanOperator& op : session.shared_plan()->operators()) {
    if (!op.is_factor) ++query_ops;
  }
  EXPECT_EQ(query_ops, 3);

  ASSERT_TRUE(session.PushBatch(events).ok());
  ASSERT_TRUE(session.Finish().ok());

  // Reference runs, one original plan per query.
  auto reference = [&](std::vector<Window> windows) {
    WindowSet set;
    for (const Window& w : windows) EXPECT_TRUE(set.Add(w).ok());
    CollectingSink sink;
    ExecutePlan(QueryPlan::Original(set, Agg("MIN")), events, 1, &sink,
                nullptr, nullptr);
    ResultMap map;
    for (const auto& [key, value] : sink.ToMap()) {
      map[key] = value;
    }
    return map;
  };
  // Local numbering: T(40) is operator 1 for query 1 and operator 0 for
  // query 2.
  EXPECT_EQ(q1_results,
            reference({Window::Tumbling(20), Window::Tumbling(40)}));
  EXPECT_EQ(q2_results,
            reference({Window::Tumbling(40), Window::Tumbling(60)}));
}

// The satellite differential test, add direction: a session that gains a
// query mid-stream emits, from the migration point onward, exactly what a
// fresh session built with the final query set (and fed the whole stream)
// emits. Pre-existing queries keep their partial state across the replan,
// so for them the equality holds over the *entire* stream.
TEST(StreamSession, AddQueryChurnMatchesFreshSession) {
  std::vector<Event> events = GenerateSyntheticStream(12000, 1, 14);
  const size_t half = events.size() / 2;
  const TimeT t_mig = events[half].timestamp;

  StreamSession churned;
  ResultMap c1;
  ResultMap c2;
  ResultMap c3;
  ASSERT_TRUE(churned.AddQuery(Dashboard(20), CollectInto(&c1)).ok());
  ASSERT_TRUE(churned.AddQuery(Dashboard(40), CollectInto(&c2)).ok());
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(churned.Push(events[i]).ok());
  }
  ASSERT_TRUE(churned.AddQuery(Dashboard(80), CollectInto(&c3)).ok());
  // T(20) and T(40) survive the replan with their provider chains intact;
  // only the new T(80) operator starts cold.
  EXPECT_EQ(churned.Stats().operators_migrated, 2);
  EXPECT_EQ(churned.Stats().operators_cold, 1);
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(churned.Push(events[i]).ok());
  }
  ASSERT_TRUE(churned.Finish().ok());

  StreamSession fresh;
  ResultMap f1;
  ResultMap f2;
  ResultMap f3;
  ASSERT_TRUE(fresh.AddQuery(Dashboard(20), CollectInto(&f1)).ok());
  ASSERT_TRUE(fresh.AddQuery(Dashboard(40), CollectInto(&f2)).ok());
  ASSERT_TRUE(fresh.AddQuery(Dashboard(80), CollectInto(&f3)).ok());
  ASSERT_TRUE(fresh.PushBatch(events).ok());
  ASSERT_TRUE(fresh.Finish().ok());

  // Migrated queries: exact over the whole stream.
  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(c1, f1);
  EXPECT_EQ(c2, f2);
  // The added query starts cold: exact for windows opening at or after
  // the migration point (earlier windows are partial by design).
  ResultMap c3_after = FilterFrom(c3, t_mig);
  EXPECT_FALSE(c3_after.empty());
  EXPECT_EQ(c3_after, FilterFrom(f3, t_mig));
}

// Remove direction: dropping a query mid-stream leaves the surviving
// queries' results identical to a fresh session that never had it.
TEST(StreamSession, RemoveQueryChurnMatchesFreshSession) {
  std::vector<Event> events = GenerateSyntheticStream(12000, 1, 15);
  const size_t half = events.size() / 2;

  StreamSession churned;
  ResultMap c1;
  ResultMap c2;
  ASSERT_TRUE(churned.AddQuery(Dashboard(20), CollectInto(&c1)).ok());
  ASSERT_TRUE(churned.AddQuery(Dashboard(40), CollectInto(&c2)).ok());
  Result<QueryId> doomed = churned.AddQuery(Dashboard(80));
  ASSERT_TRUE(doomed.ok());
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(churned.Push(events[i]).ok());
  }
  ASSERT_TRUE(churned.RemoveQuery(*doomed).ok());
  EXPECT_EQ(churned.num_queries(), 2u);
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(churned.Push(events[i]).ok());
  }
  ASSERT_TRUE(churned.Finish().ok());

  StreamSession fresh;
  ResultMap f1;
  ResultMap f2;
  ASSERT_TRUE(fresh.AddQuery(Dashboard(20), CollectInto(&f1)).ok());
  ASSERT_TRUE(fresh.AddQuery(Dashboard(40), CollectInto(&f2)).ok());
  ASSERT_TRUE(fresh.PushBatch(events).ok());
  ASSERT_TRUE(fresh.Finish().ok());

  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(c1, f1);
  EXPECT_EQ(c2, f2);
}

// Add/remove churn combined, against ground truth (independent original
// plans over the full stream, filtered to post-churn windows).
TEST(StreamSession, CombinedChurnAgainstGroundTruth) {
  std::vector<Event> events = GenerateSyntheticStream(16000, 1, 16);

  StreamSession session;
  ResultMap keeper;
  ASSERT_TRUE(session.AddQuery(Dashboard(20), CollectInto(&keeper)).ok());
  Result<QueryId> transient = session.AddQuery(Dashboard(60));
  ASSERT_TRUE(transient.ok());

  ResultMap late;
  TimeT t_late = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 4) {
      ASSERT_TRUE(session.RemoveQuery(*transient).ok());
    }
    if (i == events.size() / 2) {
      t_late = events[i].timestamp;
      ASSERT_TRUE(
          session.AddQuery(Dashboard(40).Tumbling(80), CollectInto(&late))
              .ok());
    }
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().replans, 4);

  // Keeper never lost its lineage: exact over the whole stream.
  WindowSet w20;
  ASSERT_TRUE(w20.Add(Window::Tumbling(20)).ok());
  CollectingSink ref20;
  ExecutePlan(QueryPlan::Original(w20, Agg("MIN")), events, 1, &ref20,
              nullptr, nullptr);
  ResultMap expected_keeper;
  for (const auto& [key, value] : ref20.ToMap()) expected_keeper[key] = value;
  EXPECT_EQ(keeper, expected_keeper);

  // Late joiner: exact from its join point onward.
  WindowSet w4080;
  ASSERT_TRUE(w4080.Add(Window::Tumbling(40)).ok());
  ASSERT_TRUE(w4080.Add(Window::Tumbling(80)).ok());
  CollectingSink ref4080;
  ExecutePlan(QueryPlan::Original(w4080, Agg("MIN")), events, 1,
              &ref4080, nullptr, nullptr);
  ResultMap expected_late;
  for (const auto& [key, value] : ref4080.ToMap()) {
    expected_late[key] = value;
  }
  ResultMap late_after = FilterFrom(late, t_late);
  EXPECT_FALSE(late_after.empty());
  EXPECT_EQ(late_after, FilterFrom(expected_late, t_late));
}

TEST(StreamSession, PerKeyGrouping) {
  const uint32_t kKeys = 4;
  std::vector<Event> events = GenerateSyntheticStream(8000, kKeys, 17);

  StreamSession session({.num_keys = kKeys});
  ResultMap results;
  ASSERT_TRUE(session
                  .AddQuery(Query()
                                .Max("v")
                                .From("fleet")
                                .PerKey("device")
                                .Hopping(40, 10),
                            CollectInto(&results))
                  .ok());
  ASSERT_TRUE(session.PushBatch(events).ok());
  ASSERT_TRUE(session.Finish().ok());

  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window(40, 10)).ok());
  CollectingSink reference;
  ExecutePlan(QueryPlan::Original(windows, Agg("MAX")), events, kKeys,
              &reference, nullptr, nullptr);
  EXPECT_EQ(results, reference.ToMap());
}

TEST(StreamSession, LifecycleValidation) {
  StreamSession session;
  // Holistic aggregates cannot join a shared session.
  EXPECT_EQ(session.AddQuery(Query().Median("v").From("s").Tumbling(20))
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // Builder errors pass through.
  EXPECT_FALSE(session.AddQuery(Query().Min("v").Tumbling(20)).ok());

  Result<QueryId> first = session.AddQuery(Dashboard(20));
  ASSERT_TRUE(first.ok());
  // Mismatched source / aggregate against the live population.
  EXPECT_EQ(session.AddQuery(Query().Min("v").From("other").Tumbling(40))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.AddQuery(Query().Max("v").From("telemetry").Tumbling(40))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // Mixed grouping across the population.
  EXPECT_EQ(session.AddQuery(Dashboard(40).PerKey("device"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A failed AddQuery leaves the session unchanged.
  EXPECT_EQ(session.num_queries(), 1u);

  // A global aggregate in a keyed session would silently emit per-key
  // results; reject it up front.
  StreamSession keyed({.num_keys = 4});
  EXPECT_EQ(keyed.AddQuery(Dashboard(20)).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(session.RemoveQuery(999).code(), StatusCode::kNotFound);

  // Ordering and key-space validation.
  ASSERT_TRUE(session.Push({.timestamp = 10, .key = 0, .value = 1.0}).ok());
  EXPECT_EQ(session.Push({.timestamp = 9, .key = 0, .value = 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Push({.timestamp = 11, .key = 5, .value = 1.0}).code(),
            StatusCode::kOutOfRange);

  ASSERT_TRUE(session.Finish().ok());
  EXPECT_TRUE(session.Finish().ok());  // Idempotent.
  EXPECT_FALSE(session.Push({.timestamp = 12, .key = 0}).ok());
  EXPECT_FALSE(session.AddQuery(Dashboard(40)).ok());
  EXPECT_FALSE(session.RemoveQuery(*first).ok());
}

// A rejected batch must tell the caller where it stopped: the index and
// timestamp of the first rejected event, with everything before it applied.
TEST(StreamSession, PushBatchReportsFirstRejectedEvent) {
  StreamSession session;
  ASSERT_TRUE(session.AddQuery(Dashboard(20)).ok());
  std::vector<Event> batch = {
      {.timestamp = 5, .key = 0, .value = 1.0},
      {.timestamp = 7, .key = 0, .value = 2.0},
      {.timestamp = 6, .key = 0, .value = 3.0},  // Out of order.
      {.timestamp = 8, .key = 0, .value = 4.0},
  };
  Status status = session.PushBatch(batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("event 2"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("timestamp 6"), std::string::npos)
      << status.message();
  // Events 0 and 1 were applied; the session can resume past the bad one.
  EXPECT_EQ(session.Stats().events_pushed, 2u);
  EXPECT_TRUE(session.Push({.timestamp = 8, .key = 0, .value = 4.0}).ok());
}

TEST(StreamSession, IdleSessionDropsEventsAndRevives) {
  StreamSession session;
  ASSERT_TRUE(session.Push({.timestamp = 1, .key = 0, .value = 1.0}).ok());
  EXPECT_EQ(session.Stats().events_dropped, 1u);
  EXPECT_EQ(session.shared_plan(), nullptr);

  ResultMap results;
  Result<QueryId> id = session.AddQuery(Dashboard(20), CollectInto(&results));
  ASSERT_TRUE(id.ok());
  // Remove the last query: the pipeline is retired...
  ASSERT_TRUE(session.RemoveQuery(*id).ok());
  EXPECT_EQ(session.shared_plan(), nullptr);
  ASSERT_TRUE(session.Push({.timestamp = 2, .key = 0, .value = 1.0}).ok());
  // ...and a later AddQuery revives it.
  ASSERT_TRUE(session.AddQuery(Dashboard(20), CollectInto(&results)).ok());
  for (TimeT t = 3; t < 100; ++t) {
    ASSERT_TRUE(session.Push({.timestamp = t, .key = 0, .value = 1.0}).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_FALSE(results.empty());
}

TEST(StreamSession, QueryIdsAreStableAndNeverReused) {
  StreamSession session;
  Result<QueryId> a = session.AddQuery(Dashboard(20));
  Result<QueryId> b = session.AddQuery(Dashboard(40));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(session.RemoveQuery(*a).ok());
  Result<QueryId> c = session.AddQuery(Dashboard(60));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*c, *a);
  EXPECT_NE(*c, *b);
  // b is still addressable after a's removal.
  EXPECT_TRUE(session.StatsFor(*b).ok());
  EXPECT_FALSE(session.StatsFor(*a).ok());
}

TEST(StreamSession, StatsAttributeOpsAndSurviveReplans) {
  std::vector<Event> events = GenerateSyntheticStream(8000, 1, 18);

  StreamSession session;
  Result<QueryId> small = session.AddQuery(Dashboard(20));
  Result<QueryId> big = session.AddQuery(Dashboard(40).Tumbling(80));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  for (size_t i = 0; i < events.size() / 2; ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  uint64_t ops_before = session.Stats().lifetime_ops;
  EXPECT_GT(ops_before, 0u);

  // A replan must not lose engine-op accounting: migrated operators carry
  // their counters, retired ones move into the session tally.
  ASSERT_TRUE(session.RemoveQuery(*big).ok());
  EXPECT_EQ(session.Stats().lifetime_ops, ops_before);
  for (size_t i = events.size() / 2; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_GT(session.Stats().lifetime_ops, ops_before);

  Result<StreamSession::QueryStats> stats = session.StatsFor(*small);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->results_delivered, 0u);
  EXPECT_GT(stats->attributed_ops, 0u);
  EXPECT_LE(stats->attributed_ops, session.Stats().lifetime_ops);
}

// A callback that counts its invocations into `*calls`.
StreamSession::ResultCallback CountInto(uint64_t* calls) {
  return [calls](const WindowResult&) { ++*calls; };
}

TEST(StreamSession, ResultsDeliveredCountsEveryCallbackInvocation) {
  constexpr uint32_t kKeys = 16;
  const std::vector<Event> events = GenerateSyntheticStream(8000, kKeys, 19);
  auto fleet = [](TimeT range) {
    return Query().Max("v").From("fleet").PerKey("device").Tumbling(range);
  };
  for (const uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    StreamSession session({.num_keys = kKeys, .num_shards = shards});
    uint64_t calls[2] = {0, 0};
    Result<QueryId> a = session.AddQuery(fleet(20).Hopping(60, 20),
                                         CountInto(&calls[0]));
    Result<QueryId> b =
        session.AddQuery(fleet(40).Tumbling(80), CountInto(&calls[1]));
    // The same windows as `b` under a null callback: counted, not called.
    Result<QueryId> silent = session.AddQuery(fleet(40).Tumbling(80));
    ASSERT_TRUE(a.ok() && b.ok() && silent.ok());
    const size_t half = events.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    // A replan mid-stream: the counters carry across it.
    Result<QueryId> transient = session.AddQuery(fleet(120));
    ASSERT_TRUE(transient.ok());
    for (size_t i = half; i < events.size(); ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_GT(calls[0], 0u);
    EXPECT_EQ(session.StatsFor(*a)->results_delivered, calls[0]);
    EXPECT_EQ(session.StatsFor(*b)->results_delivered, calls[1]);
    EXPECT_EQ(session.StatsFor(*silent)->results_delivered, calls[1]);
  }
}

TEST(StreamSession, ResultsDeliveredStaysExactAcrossADriftCrossover) {
  // AdaptiveSession.SparseStreamEvictsFactorWindowsBitwise's set-up: at
  // η = 0.05 the drift detector evicts the factor window through the
  // dual-pipeline crossover, whose start gates drop each pipeline's
  // foreign era one block at a time.
  auto example7 = [] {
    return Query().Sum("v").From("s").Tumbling(20).Tumbling(30).Tumbling(
        40);
  };
  std::vector<Event> events;
  for (int i = 0; i < 4000; ++i) {
    events.push_back(Event{static_cast<TimeT>(i) * 20, 0,
                           static_cast<double>(i % 313)});
  }
  StreamSession::Options options;
  options.num_keys = 1;
  options.adaptive.enabled = true;
  options.monitor_interval = 256;
  options.adaptive.rate_alpha = 0.5;
  options.adaptive.reoptimize_ratio = 2.0;
  options.adaptive.min_events_between_replans = 1024;
  StreamSession session(options);
  uint64_t calls = 0;
  Result<QueryId> counted = session.AddQuery(example7(), CountInto(&calls));
  Result<QueryId> silent = session.AddQuery(example7());
  ASSERT_TRUE(counted.ok() && silent.ok());
  for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_GE(session.Stats().drift_replans, 1);
  for (const PlanOperator& op : session.shared_plan()->operators()) {
    EXPECT_TRUE(op.exposed) << "factor window " << op.label << " survived";
  }

  // A static session delivers the same number of results.
  StreamSession oracle;
  uint64_t oracle_calls = 0;
  ASSERT_TRUE(oracle.AddQuery(example7(), CountInto(&oracle_calls)).ok());
  for (const Event& e : events) ASSERT_TRUE(oracle.Push(e).ok());
  ASSERT_TRUE(oracle.Finish().ok());
  EXPECT_EQ(calls, oracle_calls);
  EXPECT_EQ(session.StatsFor(*counted)->results_delivered, calls);
  EXPECT_EQ(session.StatsFor(*silent)->results_delivered, calls);
}

TEST(StreamSession, TrackBaselineReportsSavings) {
  StreamSession session({.num_keys = 1, .optimizer = {},
                         .track_baseline = true});
  for (TimeT r : {20, 40, 60, 80, 120}) {
    ASSERT_TRUE(session.AddQuery(Dashboard(r)).ok());
  }
  StreamSession::SessionStats stats = session.Stats();
  EXPECT_GT(stats.shared_cost, 0.0);
  EXPECT_GT(stats.independent_cost, stats.shared_cost);
  EXPECT_GT(stats.predicted_savings, 1.0);
}

// Every result reaches its query's callback during the push of its
// trigger event, the first event at or past the window's end, or at
// Finish when no event reaches past it: factor-fed windows close as
// promptly as raw ones. The plan is the repo benchmark's dash_fw one:
// eight hopping 5-window MIN dashboards from the seed-42 panel, served by
// one T(5) factor root.
TEST(StreamSession, InlineDeliveryArrivesWithTheTriggerEvent) {
  constexpr size_t kAtFinish = std::numeric_limits<size_t>::max();
  const std::vector<Event> events = GenerateSyntheticStream(20000, 16, 1);
  PanelConfig panel;
  panel.tumbling = false;
  panel.set_size = 5;
  panel.num_sets = 8;
  panel.seed = 42;

  StreamSession session({.num_keys = 16});
  size_t position = 0;
  uint64_t results = 0;
  uint64_t off_trigger = 0;
  auto check = [&](const WindowResult& r) {
    ++results;
    const auto trigger = std::lower_bound(
        events.begin(), events.end(), r.end,
        [](const Event& e, TimeT end) { return e.timestamp < end; });
    const size_t expected =
        trigger == events.end()
            ? kAtFinish
            : static_cast<size_t>(trigger - events.begin());
    if (position != expected && off_trigger++ == 0) {
      ADD_FAILURE() << "first off-trigger result: end " << r.end
                    << " arrived at " << position << ", trigger at "
                    << expected;
    }
  };
  for (WindowSet& windows : GeneratePanelWindowSets(panel)) {
    StreamQuery query;
    query.source = "s";
    query.agg = Agg("MIN");
    query.value_column = "v";
    query.per_key = true;
    query.key_column = "k";
    query.windows = std::move(windows);
    ASSERT_TRUE(session.AddQuery(query, check).ok());
  }
  const QueryPlan* plan = session.shared_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->num_operators(), 38u);
  for (; position < events.size(); ++position) {
    ASSERT_TRUE(session.Push(events[position]).ok());
  }
  position = kAtFinish;
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_GT(results, 0u);
  EXPECT_EQ(off_trigger, 0u) << "of " << results << " results";
}

// --- Out-of-order ingestion (Options::max_delay) ---------------------------

// The tentpole differential: a shuffled stream ingested with max_delay >=
// its actual disorder yields byte-identical results to the sorted stream
// ingested strictly — across shard counts, and across a mid-stream replan
// (which must checkpoint and restore the in-flight reorder buffers).
TEST(StreamSessionDisorder, ShuffledMatchesSortedAcrossShardsAndChurn) {
  constexpr uint32_t kKeys = 8;
  constexpr TimeT kMaxDelay = 64;
  std::vector<Event> sorted = GenerateSyntheticStream(12000, kKeys, 51);
  std::vector<Event> shuffled =
      ApplyBoundedDisorder(sorted, static_cast<size_t>(kMaxDelay), 8);
  const size_t half = sorted.size() / 2;

  auto fleet = [](TimeT range) {
    return Query().Max("v").From("fleet").PerKey("device").Tumbling(range);
  };
  auto run = [&](const std::vector<Event>& events, TimeT max_delay,
                 uint32_t shards) {
    StreamSession::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.max_delay = max_delay;
    StreamSession session(options);
    ResultMap results;
    EXPECT_TRUE(
        session.AddQuery(fleet(20).Hopping(60, 20), CollectInto(&results))
            .ok());
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == half) {
        // Replan mid-disorder: in-flight buffered events must survive.
        if (max_delay > 0) {
          EXPECT_GT(session.Stats().reorder_buffered, 0u);
        }
        EXPECT_TRUE(session.AddQuery(fleet(40)).ok());
      }
      EXPECT_TRUE(session.Push(events[i]).ok());
    }
    EXPECT_TRUE(session.Finish().ok());
    EXPECT_EQ(session.Stats().late_events, 0u);
    EXPECT_EQ(session.Stats().reorder_buffered, 0u);  // Finish drains.
    return results;
  };

  ResultMap baseline = run(sorted, 0, 1);  // Strict, single-threaded.
  ASSERT_FALSE(baseline.empty());
  for (uint32_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(run(shuffled, kMaxDelay, shards), baseline)
        << shards << " shards";
  }
}

TEST(StreamSessionDisorder, LateEventsFollowPolicy) {
  // Watermark trails the newest timestamp by 5: after t=30 arrives,
  // anything below 25 is late.
  StreamSession::Options options;
  options.max_delay = 5;
  std::vector<Event> side_output;
  options.late_policy = StreamSession::LatePolicy::kSideOutput;
  options.late_callback = [&side_output](const Event& event) {
    side_output.push_back(event);
  };
  StreamSession session(options);
  ResultMap results;
  ASSERT_TRUE(session.AddQuery(Dashboard(10), CollectInto(&results)).ok());

  ASSERT_TRUE(session.Push({.timestamp = 30, .key = 0, .value = 1.0}).ok());
  // Within the bound: reordered, not late.
  ASSERT_TRUE(session.Push({.timestamp = 27, .key = 0, .value = 2.0}).ok());
  // Behind the watermark: late, side-output, still Status::OK.
  ASSERT_TRUE(session.Push({.timestamp = 3, .key = 0, .value = 9.0}).ok());
  ASSERT_TRUE(session.Finish().ok());

  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.late_events, 1u);
  EXPECT_EQ(stats.events_pushed, 3u);
  ASSERT_EQ(side_output.size(), 1u);
  EXPECT_EQ(side_output[0].timestamp, 3);
  EXPECT_EQ(side_output[0].value, 9.0);
  // The late event never reached a window: t=3 opened no [0,10) result
  // with value 9.
  for (const auto& [key, value] : results) EXPECT_NE(value, 9.0);

  // kDrop only counts.
  StreamSession::Options drop_options;
  drop_options.max_delay = 5;
  StreamSession dropper(drop_options);
  ASSERT_TRUE(dropper.AddQuery(Dashboard(10)).ok());
  ASSERT_TRUE(dropper.Push({.timestamp = 30, .key = 0, .value = 1.0}).ok());
  ASSERT_TRUE(dropper.Push({.timestamp = 3, .key = 0, .value = 9.0}).ok());
  EXPECT_EQ(dropper.Stats().late_events, 1u);
  ASSERT_TRUE(dropper.Finish().ok());
}

TEST(StreamSessionDisorder, StatsTrackWatermarkAndBufferDepth) {
  StreamSession::Options options;
  options.max_delay = 10;
  StreamSession session(options);
  EXPECT_EQ(session.Stats().current_watermark,
            std::numeric_limits<TimeT>::min());
  ASSERT_TRUE(session.AddQuery(Dashboard(20)).ok());

  ASSERT_TRUE(session.Push({.timestamp = 50, .key = 0, .value = 1.0}).ok());
  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.current_watermark, 40);
  EXPECT_EQ(stats.reorder_buffered, 1u);  // t=50 awaits the watermark.
  ASSERT_TRUE(session.Push({.timestamp = 45, .key = 0, .value = 2.0}).ok());
  EXPECT_EQ(session.Stats().reorder_buffered, 2u);
  EXPECT_GE(session.Stats().reorder_buffer_peak, 2u);

  // Advancing the clock past 50 + max_delay releases both.
  ASSERT_TRUE(session.Push({.timestamp = 61, .key = 0, .value = 3.0}).ok());
  stats = session.Stats();
  EXPECT_EQ(stats.current_watermark, 51);
  EXPECT_EQ(stats.reorder_buffered, 1u);  // Only t=61 remains.
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().reorder_buffered, 0u);
  // Peak saw t=61 join t=45/t=50 before the release.
  EXPECT_EQ(session.Stats().reorder_buffer_peak, 3u);
}

TEST(StreamSessionDisorder, StrictSessionsStillRejectAndDisorderedAccept) {
  // max_delay = 0 keeps the pre-existing contract (rejection) while a
  // disordered session accepts the same regression.
  StreamSession strict;
  ASSERT_TRUE(strict.AddQuery(Dashboard(20)).ok());
  ASSERT_TRUE(strict.Push({.timestamp = 10, .key = 0, .value = 1.0}).ok());
  EXPECT_EQ(strict.Push({.timestamp = 9, .key = 0, .value = 1.0}).code(),
            StatusCode::kInvalidArgument);

  StreamSession::Options options;
  options.max_delay = 4;
  StreamSession tolerant(options);
  ASSERT_TRUE(tolerant.AddQuery(Dashboard(20)).ok());
  ASSERT_TRUE(tolerant.Push({.timestamp = 10, .key = 0, .value = 1.0}).ok());
  EXPECT_TRUE(tolerant.Push({.timestamp = 9, .key = 0, .value = 1.0}).ok());
  ASSERT_TRUE(tolerant.Finish().ok());
}

TEST(StreamSession, ExplainRendersPlanAndSubscriptions) {
  StreamSession session;
  Result<QueryId> id = session.AddQuery(Dashboard(20).Tumbling(40));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(session.AddQuery(Dashboard(80)).ok());

  Result<std::string> explain = session.Explain(*id);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("SELECT MIN(v) FROM telemetry"),
            std::string::npos);
  EXPECT_NE(explain->find("T(20)"), std::string::npos);
  EXPECT_NE(explain->find("shared operator"), std::string::npos);
  EXPECT_NE(explain->find("shared plan"), std::string::npos);

  EXPECT_EQ(session.Explain(999).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace fw
