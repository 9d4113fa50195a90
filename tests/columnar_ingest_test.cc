// The columnar ingestion path (DESIGN.md §14) against its bitwise
// contract: PushColumns / OnEvents must produce exactly the results —
// and exactly the accumulate-op counts — of pushing the same events one
// at a time, for every registered aggregate (batch kernel or derived
// scalar fallback), at the engine level (single- and multi-root plans)
// and at the session level (1/2/4 shards, disorder, mid-stream resizes),
// plus the unified ingestion error contract shared by Push / PushBatch /
// PushColumns.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cost/min_cost.h"
#include "exec/columns.h"
#include "exec/engine.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

using ResultMap = std::map<std::tuple<int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback CollectInto(ResultMap* map) {
  return [map](const WindowResult& r) {
    (*map)[{r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

// --- EventColumns ----------------------------------------------------------

TEST(EventColumns, RoundTripAndAccessors) {
  std::vector<Event> events = {
      {.timestamp = 3, .key = 1, .value = 2.5},
      {.timestamp = 4, .key = 0, .value = -1.0},
      {.timestamp = 4, .key = 1, .value = 7.0},
  };
  EventColumns columns = EventColumns::FromEvents(events);
  ASSERT_TRUE(columns.Validate().ok());
  ASSERT_EQ(columns.size(), 3u);
  EXPECT_FALSE(columns.empty());
  for (size_t i = 0; i < events.size(); ++i) {
    const Event e = columns[i];
    EXPECT_EQ(e.timestamp, events[i].timestamp);
    EXPECT_EQ(e.key, events[i].key);
    EXPECT_EQ(e.value, events[i].value);
  }
  columns.clear();
  EXPECT_TRUE(columns.empty());
  columns.Append(Event{.timestamp = 9, .key = 2, .value = 1.0});
  EXPECT_EQ(columns.size(), 1u);
}

TEST(EventColumns, ValidateRejectsRaggedColumns) {
  EventColumns columns;
  columns.Append(1, 0, 1.0);
  columns.values.push_back(2.0);  // Ragged: values is now longer.
  Status status = columns.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("column length mismatch"),
            std::string::npos)
      << status.message();
}

// --- Engine-level differential ---------------------------------------------

// The delivered sequence, bit for bit: same results in the same order.
void ExpectSameSequence(const std::vector<WindowResult>& got,
                        const std::vector<WindowResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const WindowResult& a = got[i];
    const WindowResult& b = want[i];
    if (a.operator_id != b.operator_id || a.start != b.start ||
        a.end != b.end || a.key != b.key ||
        std::bit_cast<uint64_t>(a.value) != std::bit_cast<uint64_t>(b.value)) {
      ADD_FAILURE() << "result " << i << " differs: operator " << a.operator_id
                    << " [" << a.start << ", " << a.end << ") key " << a.key
                    << " = " << a.value << ", want operator " << b.operator_id
                    << " [" << b.start << ", " << b.end << ") key " << b.key
                    << " = " << b.value;
      return;
    }
  }
}

// Every shareable builtin — tight batch kernel or derived scalar
// fallback (P99 / DISTINCT_COUNT declare none) — through an Original
// multi-root plan: the hardest engine shape, because run boundaries must
// be the global minimum over all raw readers to preserve emission order.
TEST(ColumnarEngine, EveryBuiltinBitwiseEqualOnMultiRootPlan) {
  const std::vector<Event> events = GenerateSyntheticStream(4000, 8, 77);
  const std::vector<EventColumns> chunks = SplitIntoColumns(events, 97);
  WindowSet set;
  ASSERT_TRUE(set.Add(Window::Tumbling(20)).ok());
  ASSERT_TRUE(set.Add(Window(60, 20)).ok());
  ASSERT_TRUE(set.Add(Window::Tumbling(45)).ok());

  for (const char* name :
       {"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV", "VARIANCE", "RANGE",
        "FIRST", "LAST", "P99", "DISTINCT_COUNT"}) {
    SCOPED_TRACE(name);
    QueryPlan plan = QueryPlan::Original(set, Agg(name));

    CollectingSink scalar_sink;
    PlanExecutor scalar(plan, {.num_keys = 8}, &scalar_sink);
    for (const Event& e : events) scalar.Push(e);
    scalar.Finish();

    CollectingSink columnar_sink;
    PlanExecutor columnar(plan, {.num_keys = 8}, &columnar_sink);
    for (const EventColumns& c : chunks) columnar.PushColumns(c);
    columnar.Finish();

    EXPECT_EQ(columnar_sink.ToMap(), scalar_sink.ToMap());
    // Each run is grouped once for all three readers; the delivered
    // sequence, not only the result map, is the per-event one.
    ExpectSameSequence(columnar_sink.results(), scalar_sink.results());
    // The drift-hazard regression: both paths count one op per
    // (event x open instance), so the counters must agree exactly.
    EXPECT_EQ(columnar.TotalAccumulateOps(), scalar.TotalAccumulateOps());
  }
}

// A registered copy of `fn` that declares no merge_batch kernel, so the
// engine merges sub-aggregates through its per-key fallback loop.
AggFn WithoutMergeBatch(AggFn fn) {
  const std::string name = fn->name + "_NO_MERGE_BATCH";
  if (AggFn registered = FindAggregate(name)) return registered;
  AggregateFunction clone = *fn;
  clone.name = name;
  clone.merge_batch = nullptr;
  return AggregateRegistry::Global().Register(std::move(clone)).value();
}

// The rewritten (shared factor-window) plan: single raw root feeding a
// merge chain, so OnEvents' per-operator run split carries the folds and
// every child merges through its function's merge_batch kernel (P99 and
// DISTINCT_COUNT declare none and take the fallback loop). 130
// round-robin keys give each bitmap three words, and an instance's keys
// wrap across them. A third leg runs the plan over a clone without
// merge_batch: the delivered sequence, not only the result map, must
// match.
TEST(ColumnarEngine, RewrittenPlanBitwiseEqual) {
  constexpr uint32_t kKeys = 130;
  const std::vector<Event> events = GenerateSyntheticStream(6000, kKeys, 78);
  const std::vector<EventColumns> chunks = SplitIntoColumns(events, 256);
  WindowSet set;
  for (TimeT r : {10, 20, 30, 40, 60}) {
    ASSERT_TRUE(set.Add(Window::Tumbling(r)).ok());
  }
  for (const char* name :
       {"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV", "VARIANCE", "RANGE",
        "FIRST", "LAST", "P99", "DISTINCT_COUNT"}) {
    SCOPED_TRACE(name);
    AggFn fn = Agg(name);
    MinCostWcg wcg = FindMinCostWcg(set, SemanticsFor(fn).value());
    QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, fn);
    ASSERT_GT(plan.NumSharedEdges(), 0);

    CollectingSink scalar_sink;
    PlanExecutor scalar(plan, {.num_keys = kKeys}, &scalar_sink);
    for (const Event& e : events) scalar.Push(e);
    scalar.Finish();

    CollectingSink columnar_sink;
    PlanExecutor columnar(plan, {.num_keys = kKeys}, &columnar_sink);
    for (const EventColumns& c : chunks) columnar.PushColumns(c);
    columnar.Finish();

    EXPECT_EQ(columnar_sink.ToMap(), scalar_sink.ToMap());
    EXPECT_EQ(columnar.TotalAccumulateOps(), scalar.TotalAccumulateOps());

    QueryPlan fallback_plan =
        QueryPlan::FromMinCostWcg(wcg, WithoutMergeBatch(fn));
    CollectingSink fallback_sink;
    PlanExecutor fallback(fallback_plan, {.num_keys = kKeys}, &fallback_sink);
    for (const EventColumns& c : chunks) fallback.PushColumns(c);
    fallback.Finish();

    ExpectSameSequence(fallback_sink.results(), columnar_sink.results());
    EXPECT_EQ(fallback.TotalAccumulateOps(), columnar.TotalAccumulateOps());
  }
}

// Holistic aggregates keep raw-value state, so PushColumns degenerates
// to per-event delivery — results must still match exactly.
TEST(ColumnarEngine, HolisticFallsBackPerEvent) {
  const std::vector<Event> events = GenerateSyntheticStream(2000, 1, 79);
  const std::vector<EventColumns> chunks = SplitIntoColumns(events, 128);
  WindowSet set;
  ASSERT_TRUE(set.Add(Window::Tumbling(25)).ok());
  QueryPlan plan = QueryPlan::Original(set, Agg("MEDIAN"));

  CollectingSink scalar_sink;
  PlanExecutor scalar(plan, {.num_keys = 1}, &scalar_sink);
  for (const Event& e : events) scalar.Push(e);
  scalar.Finish();

  CollectingSink columnar_sink;
  PlanExecutor columnar(plan, {.num_keys = 1}, &columnar_sink);
  for (const EventColumns& c : chunks) columnar.PushColumns(c);
  columnar.Finish();

  EXPECT_EQ(columnar_sink.ToMap(), scalar_sink.ToMap());
  EXPECT_EQ(columnar.TotalAccumulateOps(), scalar.TotalAccumulateOps());
}

// --- Session-level differential --------------------------------------------

QueryBuilder KeyedDashboard() {
  return Query().Max("v").From("fleet").PerKey("device");
}

struct SessionRun {
  ResultMap results;
  uint64_t lifetime_ops = 0;
  uint64_t events_pushed = 0;
  uint64_t late_events = 0;
};

// Pushes `events` through a fresh keyed-dashboard session. batch == 0
// ingests per event; otherwise PushColumns in batch-sized chunks.
// resize_schedule maps event index -> new shard count, applied before
// that event (chunks are split so resizes land at exact indices).
void RunSession(const std::vector<Event>& events, uint32_t shards,
                TimeT max_delay, size_t batch,
                const std::map<size_t, uint32_t>& resize_schedule,
                SessionRun* out) {
  StreamSession::Options options;
  options.num_keys = 16;
  options.num_shards = shards;
  options.max_delay = max_delay;
  StreamSession session(options);
  ASSERT_TRUE(
      session.AddQuery(KeyedDashboard().Tumbling(20).Hopping(60, 20),
                       CollectInto(&out->results))
          .ok());

  EventColumns pending;
  auto flush = [&] {
    if (pending.empty()) return;
    Status status = session.PushColumns(pending);
    ASSERT_TRUE(status.ok()) << status.ToString();
    pending.clear();
  };
  for (size_t i = 0; i < events.size(); ++i) {
    auto resize = resize_schedule.find(i);
    if (resize != resize_schedule.end()) {
      ASSERT_NO_FATAL_FAILURE(flush());
      ASSERT_TRUE(session.Resize(resize->second).ok());
    }
    if (batch == 0) {
      Status status = session.Push(events[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
    } else {
      pending.Append(events[i]);
      if (pending.size() >= batch) {
        ASSERT_NO_FATAL_FAILURE(flush());
      }
    }
  }
  ASSERT_NO_FATAL_FAILURE(flush());
  ASSERT_TRUE(session.Finish().ok());
  StreamSession::SessionStats stats = session.Stats();
  out->lifetime_ops = stats.lifetime_ops;
  out->events_pushed = stats.events_pushed;
  out->late_events = stats.late_events;
}

// PushColumns == per-event Push, bitwise, at 1/2/4 shards under real
// disorder (max_delay > 0 with some genuinely late events).
TEST(ColumnarSession, MatchesPerEventPushAcrossShardCounts) {
  std::vector<Event> events = GenerateSyntheticStream(8000, 16, 101);
  events = ApplyBoundedDisorder(events, 48, 102);  // max_delay 32: late tail.

  SessionRun oracle;
  ASSERT_NO_FATAL_FAILURE(
      RunSession(events, 1, /*max_delay=*/32, /*batch=*/0, {}, &oracle));
  ASSERT_FALSE(oracle.results.empty());

  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SessionRun subject;
    ASSERT_NO_FATAL_FAILURE(RunSession(events, shards, /*max_delay=*/32,
                                       /*batch=*/113, {}, &subject));
    EXPECT_EQ(subject.results, oracle.results);
    EXPECT_EQ(subject.lifetime_ops, oracle.lifetime_ops);
    EXPECT_EQ(subject.events_pushed, oracle.events_pushed);
    EXPECT_EQ(subject.late_events, oracle.late_events);
  }
}

// Mid-stream elasticity: a 1 -> 4 -> 2 resize schedule while ingesting
// columnar, under disorder, still matches the static per-event oracle.
TEST(ColumnarSession, SurvivesMidStreamResizes) {
  std::vector<Event> events = GenerateSyntheticStream(9000, 16, 103);
  events = ApplyBoundedDisorder(events, 32, 104);

  SessionRun oracle;
  ASSERT_NO_FATAL_FAILURE(
      RunSession(events, 1, /*max_delay=*/48, /*batch=*/0, {}, &oracle));
  ASSERT_FALSE(oracle.results.empty());

  SessionRun subject;
  ASSERT_NO_FATAL_FAILURE(RunSession(
      events, 1, /*max_delay=*/48, /*batch=*/231,
      {{events.size() / 3, 4u}, {2 * events.size() / 3, 2u}}, &subject));
  EXPECT_EQ(subject.results, oracle.results);
  EXPECT_EQ(subject.lifetime_ops, oracle.lifetime_ops);
  EXPECT_EQ(subject.events_pushed, oracle.events_pushed);
  EXPECT_EQ(subject.late_events, oracle.late_events);
}

// --- The unified ingestion error contract ----------------------------------

TEST(ColumnarSession, ErrorWordingIdenticalAcrossEntryPoints) {
  const std::vector<Event> bad_order = {
      {.timestamp = 5, .key = 0, .value = 1.0},
      {.timestamp = 7, .key = 0, .value = 2.0},
      {.timestamp = 6, .key = 0, .value = 3.0},  // Out of order.
      {.timestamp = 8, .key = 0, .value = 4.0},
  };

  auto run_batch = [&](Status* status_out, uint64_t* pushed_out) {
    StreamSession session;
    ASSERT_TRUE(
        session.AddQuery(Query().Min("v").From("t").Tumbling(20)).ok());
    *status_out = session.PushBatch(bad_order);
    *pushed_out = session.Stats().events_pushed;
  };
  auto run_columns = [&](Status* status_out, uint64_t* pushed_out) {
    StreamSession session;
    ASSERT_TRUE(
        session.AddQuery(Query().Min("v").From("t").Tumbling(20)).ok());
    *status_out = session.PushColumns(EventColumns::FromEvents(bad_order));
    *pushed_out = session.Stats().events_pushed;
  };

  Status batch_status, columns_status;
  uint64_t batch_pushed = 0, columns_pushed = 0;
  ASSERT_NO_FATAL_FAILURE(run_batch(&batch_status, &batch_pushed));
  ASSERT_NO_FATAL_FAILURE(run_columns(&columns_status, &columns_pushed));

  // Identical wording, identical code, identical prefix-applied count.
  EXPECT_EQ(batch_status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(columns_status.code(), batch_status.code());
  EXPECT_EQ(columns_status.message(), batch_status.message());
  EXPECT_NE(batch_status.message().find("ingest stopped at event 2"),
            std::string::npos)
      << batch_status.message();
  EXPECT_NE(batch_status.message().find("timestamp 6"), std::string::npos);
  EXPECT_EQ(batch_pushed, 2u);
  EXPECT_EQ(columns_pushed, 2u);

  // Per-event Push speaks the same language, with index 0.
  {
    StreamSession session;
    ASSERT_TRUE(
        session.AddQuery(Query().Min("v").From("t").Tumbling(20)).ok());
    ASSERT_TRUE(session.Push(bad_order[1]).ok());
    Status status = session.Push(bad_order[2]);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("ingest stopped at event 0"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("timestamp 6"), std::string::npos);
  }
}

// Event time starts at 0: a negative timestamp would fold into no window
// instance and vanish. Every entry point rejects it under the shared
// contract, strict or not, and applies nothing from it on. The other two
// admission rules (no regression in a strict session, key below
// num_keys) share the contract too: every entry point gives the same
// code, the same cause text and the same applied prefix, with index 0
// for Push; when an event breaks two rules, the first in that order
// names the cause.
TEST(ColumnarSession, NegativeTimestampRejectedAcrossEntryPoints) {
  struct Case {
    TimeT max_delay;
    Event bad;  // Pushed third, after timestamps 5 and 7.
    StatusCode code;
    std::string cause;
  };
  const std::string negative =
      "timestamp -3 is negative: event time starts at 0";
  const std::string key_range = "event key 9 outside key space [0, 4)";
  const std::vector<Case> cases = {
      {0, {.timestamp = -3, .key = 0}, StatusCode::kOutOfRange, negative},
      {16, {.timestamp = -3, .key = 0}, StatusCode::kOutOfRange, negative},
      {0, {.timestamp = -3, .key = 9}, StatusCode::kOutOfRange, negative},
      {0, {.timestamp = 6, .key = 0}, StatusCode::kInvalidArgument,
       "out-of-order event: timestamp 6 behind watermark 7"},
      {0, {.timestamp = 6, .key = 9}, StatusCode::kInvalidArgument,
       "out-of-order event: timestamp 6 behind watermark 7"},
      {0, {.timestamp = 8, .key = 9}, StatusCode::kOutOfRange, key_range},
      {16, {.timestamp = 6, .key = 9}, StatusCode::kOutOfRange, key_range},
  };
  for (const Case& c : cases) {
    const std::vector<Event> events = {
        {.timestamp = 5, .key = 1, .value = 1.0},
        {.timestamp = 7, .key = 3, .value = 2.0},
        {.timestamp = c.bad.timestamp, .key = c.bad.key, .value = 3.0},
        {.timestamp = 8, .key = 0, .value = 4.0},
    };
    const std::string timestamp = std::to_string(c.bad.timestamp);
    SCOPED_TRACE("max_delay " + std::to_string(c.max_delay) + ", event (" +
                 timestamp + ", " + std::to_string(c.bad.key) + ")");
    StreamSession::Options options;
    options.num_keys = 4;
    options.max_delay = c.max_delay;
    std::vector<Status> statuses;
    std::vector<uint64_t> pushed;
    for (const int entry : {0, 1, 2}) {  // PushBatch, PushColumns, Push.
      StreamSession session(options);
      ASSERT_TRUE(
          session.AddQuery(Query().Sum("v").From("t").PerKey("k").Tumbling(10))
              .ok());
      Status status;
      if (entry == 0) {
        status = session.PushBatch(events);
      } else if (entry == 1) {
        status = session.PushColumns(EventColumns::FromEvents(events));
      } else {
        for (size_t i = 0; i < events.size() && status.ok(); ++i) {
          status = session.Push(events[i]);
        }
      }
      statuses.push_back(status);
      pushed.push_back(session.Stats().events_pushed);
    }
    EXPECT_EQ(statuses[0].code(), c.code);
    EXPECT_EQ(statuses[0].message(), "ingest stopped at event 2 (timestamp " +
                                         timestamp + "): " + c.cause);
    EXPECT_EQ(statuses[1].code(), c.code);
    EXPECT_EQ(statuses[1].message(), statuses[0].message());
    // Per-event Push reports index 0, with the same cause.
    EXPECT_EQ(statuses[2].code(), c.code);
    EXPECT_EQ(statuses[2].message(), "ingest stopped at event 0 (timestamp " +
                                         timestamp + "): " + c.cause);
    EXPECT_EQ(pushed, (std::vector<uint64_t>{2, 2, 2}));
  }

  // The stream that used to vanish: 50 events before time 0 into a SUM
  // over T(10) returned OK everywhere and delivered nothing.
  ResultMap results;
  StreamSession session;
  ASSERT_TRUE(session
                  .AddQuery(Query().Sum("v").From("t").Tumbling(10),
                            CollectInto(&results))
                  .ok());
  EXPECT_EQ(session.Push({.timestamp = -1000, .key = 0, .value = 1.0}).code(),
            StatusCode::kOutOfRange);
  for (TimeT t = 0; t < 50; ++t) {
    ASSERT_TRUE(session.Push({.timestamp = t, .key = 0, .value = 1.0}).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(results.size(), 5u);
  EXPECT_EQ(session.Stats().events_pushed, 50u);
}

TEST(ColumnarSession, KeyRangeRejectionSharesContract) {
  StreamSession::Options options;
  options.num_keys = 4;
  StreamSession session(options);
  ASSERT_TRUE(session.AddQuery(KeyedDashboard().Tumbling(20)).ok());

  EventColumns columns;
  columns.Append(1, 0, 1.0);
  columns.Append(2, 9, 2.0);  // Key outside [0, 4).
  Status status = session.PushColumns(columns);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("ingest stopped at event 1"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("timestamp 2"), std::string::npos);
  EXPECT_EQ(session.Stats().events_pushed, 1u);
  // Resumable past the bad event, like PushBatch always was.
  EXPECT_TRUE(session.Push({.timestamp = 2, .key = 3, .value = 2.0}).ok());
  // The batch-size histogram counts the applied prefix, and per-event
  // Push records nothing there.
  const telemetry::HistogramSnapshot batches =
      session.Metrics().telemetry.histograms.at("session.push_batch_size");
  EXPECT_EQ(batches.count, 1u);
  EXPECT_EQ(batches.sum, 1u);
}

TEST(ColumnarSession, RaggedColumnsRejectedUpFrontNothingApplied) {
  StreamSession session;
  ASSERT_TRUE(
      session.AddQuery(Query().Min("v").From("t").Tumbling(20)).ok());
  EventColumns columns;
  columns.Append(1, 0, 1.0);
  columns.timestamps.push_back(2);  // Ragged.
  Status status = session.PushColumns(columns);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Stats().events_pushed, 0u);
}

// Strict sessions reject regressions mid-batch at the exact event; the
// accepted prefix reaches the engine (result-visible, not just counted).
TEST(ColumnarSession, AcceptedPrefixIsAggregated) {
  ResultMap results;
  StreamSession session;
  ASSERT_TRUE(session
                  .AddQuery(Query().Sum("v").From("t").Tumbling(10),
                            CollectInto(&results))
                  .ok());
  EventColumns columns;
  for (TimeT t = 0; t < 25; ++t) columns.Append(t, 0, 1.0);
  columns.Append(3, 0, 100.0);  // Regression: rejected, batch stops.
  EXPECT_EQ(session.PushColumns(columns).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(session.Finish().ok());
  // Two full T(10) windows of the 25 accepted events, untainted by the
  // rejected tail.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.begin()->second, 10.0);
}

}  // namespace
}  // namespace fw
