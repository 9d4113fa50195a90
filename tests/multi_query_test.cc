#include "multi/multi_query.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "exec/engine.h"
#include "harness/runner.h"
#include "query/parser.h"
#include "workload/datagen.h"

namespace fw {
namespace {

StreamQuery MakeQuery(const char* windows, AggFn agg = Agg("MIN"),
                      const char* source = "telemetry") {
  StreamQuery q;
  q.source = source;
  q.agg = agg;
  q.value_column = "v";
  q.windows = WindowSet::Parse(windows).value();
  return q;
}

TEST(MultiQuery, MergesWindowsAcrossQueries) {
  std::vector<StreamQuery> queries = {
      MakeQuery("{T(20), T(30)}"),
      MakeQuery("{T(40), T(60)}"),
  };
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  // 4 query windows (+ possibly factor windows).
  EXPECT_GE(shared->plan.num_operators(), 4u);
  EXPECT_EQ(shared->subscriptions.size(), 4u);
  // Sharing across queries beats independent optimization: T(40) and
  // T(60) can read T(20)/T(30) sub-aggregates from query 1.
  EXPECT_LT(shared->shared_cost, shared->independent_cost);
  EXPECT_GT(shared->PredictedSavings(), 1.0);
}

TEST(MultiQuery, DuplicateWindowsCoalesce) {
  std::vector<StreamQuery> queries = {
      MakeQuery("{T(20), T(40)}"),
      MakeQuery("{T(40), T(80)}"),  // T(40) appears in both.
  };
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(shared.ok());
  // Three distinct query windows; four subscriptions.
  int query_ops = 0;
  for (const PlanOperator& op : shared->plan.operators()) {
    query_ops += op.is_factor ? 0 : 1;
  }
  EXPECT_EQ(query_ops, 3);
  EXPECT_EQ(shared->subscriptions.size(), 4u);
}

TEST(MultiQuery, PredictedSavingsGuardsDegenerateCosts) {
  // A degenerate shared plan must not report an infinite saving.
  MultiQueryOptimizer::SharedPlan degenerate{
      QueryPlan::Original(WindowSet{}, Agg("MIN")), {}, 0.0, 0.0};
  degenerate.independent_cost = 100.0;
  degenerate.shared_cost = 0.0;
  EXPECT_EQ(degenerate.PredictedSavings(), 1.0);
  // No baseline tracked (Reoptimize's default): neutral saving.
  degenerate.independent_cost = 0.0;
  degenerate.shared_cost = 50.0;
  EXPECT_EQ(degenerate.PredictedSavings(), 1.0);
}

TEST(MultiQuery, ReoptimizeSkipsBaselineByDefault) {
  std::vector<StreamQuery> queries = {
      MakeQuery("{T(20), T(30)}"),
      MakeQuery("{T(40), T(60)}"),
  };
  Result<MultiQueryOptimizer::SharedPlan> fast =
      MultiQueryOptimizer::Reoptimize(queries);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->independent_cost, 0.0);
  EXPECT_EQ(fast->PredictedSavings(), 1.0);

  // Same plan as the baseline-carrying entry point.
  Result<MultiQueryOptimizer::SharedPlan> full =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(fast->plan.num_operators(), full->plan.num_operators());
  EXPECT_EQ(fast->shared_cost, full->shared_cost);
  EXPECT_GT(full->independent_cost, 0.0);
}

TEST(MultiQuery, Validation) {
  EXPECT_FALSE(MultiQueryOptimizer::Optimize({}).ok());
  // Different sources.
  std::vector<StreamQuery> mixed_sources = {
      MakeQuery("{T(20)}", Agg("MIN"), "a"),
      MakeQuery("{T(40)}", Agg("MIN"), "b"),
  };
  EXPECT_EQ(MultiQueryOptimizer::Optimize(mixed_sources).status().code(),
            StatusCode::kInvalidArgument);
  // Different aggregates.
  std::vector<StreamQuery> mixed_aggs = {
      MakeQuery("{T(20)}", Agg("MIN")),
      MakeQuery("{T(40)}", Agg("MAX")),
  };
  EXPECT_EQ(MultiQueryOptimizer::Optimize(mixed_aggs).status().code(),
            StatusCode::kInvalidArgument);
  // Holistic.
  std::vector<StreamQuery> holistic = {
      MakeQuery("{T(20)}", Agg("MEDIAN"))};
  EXPECT_EQ(MultiQueryOptimizer::Optimize(holistic).status().code(),
            StatusCode::kUnimplemented);
}

TEST(MultiQuery, RoutedResultsMatchIndependentExecution) {
  std::vector<StreamQuery> queries = {
      MakeQuery("{T(20), T(30)}"),
      MakeQuery("{T(40), T(60)}"),
      MakeQuery("{T(30), T(120)}"),  // Overlaps query 0's T(30).
  };
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(shared.ok());

  std::vector<Event> events = GenerateSyntheticStream(6000, 1, 5);

  // Shared execution with routing.
  std::vector<CollectingSink> per_query(queries.size());
  std::vector<ResultSink*> sinks;
  for (CollectingSink& s : per_query) sinks.push_back(&s);
  RoutingSink router(*shared, queries, sinks);
  PlanExecutor executor(shared->plan, {.num_keys = 1}, &router);
  executor.Run(events);

  // Reference: each query executed independently on its original plan.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryPlan original =
        QueryPlan::Original(queries[qi].windows, queries[qi].agg);
    CollectingSink reference;
    ExecutePlan(original, events, 1, &reference, nullptr, nullptr);
    EXPECT_EQ(per_query[qi].ToMap(), reference.ToMap()) << "query " << qi;
  }
}

// One OnBlock call, copied out of the call's arrays.
struct LoggedBlock {
  int op;
  TimeT start;
  TimeT end;
  std::vector<uint32_t> keys;
  std::vector<double> values;
  bool operator==(const LoggedBlock&) const = default;
};

// Logs every block; the engine and the router deliver blocks only, so a
// per-result call fails.
class BlockLogSink : public ResultSink {
 public:
  void OnResult(const WindowResult&) override {
    ADD_FAILURE() << "a result was delivered outside a block";
  }
  void OnBlock(int operator_id, TimeT start, TimeT end, const uint32_t* keys,
               const double* values, size_t count) override {
    blocks.push_back({operator_id, start, end, {keys, keys + count},
                      {values, values + count}});
  }
  std::vector<LoggedBlock> blocks;
};

TEST(MultiQuery, RoutingForwardsEachBlockOncePerSubscriber) {
  // Both queries subscribe to the shared T(30) operator: query 0 as its
  // window 1, query 1 as its window 0. At η = 1 the set gets a factor
  // operator (Example 7's T(10)) that nobody subscribes to.
  const std::vector<StreamQuery> queries = {MakeQuery("{T(20), T(30)}"),
                                            MakeQuery("{T(30), T(40)}")};
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  constexpr uint32_t kKeys = 4;
  const std::vector<Event> events = GenerateSyntheticStream(6000, kKeys, 8);

  // local[q][p]: query q's id for shared operator p, or -1.
  std::vector<std::vector<int>> local(
      queries.size(), std::vector<int>(shared->plan.num_operators(), -1));
  for (const MultiQueryOptimizer::Subscription& sub : shared->subscriptions) {
    const WindowSet& windows = queries[sub.query_index].windows;
    for (size_t i = 0; i < windows.size(); ++i) {
      if (windows[i] == sub.window) {
        local[sub.query_index][sub.plan_operator] = static_cast<int>(i);
      }
    }
  }
  int shared_t30 = -1;
  int factor = -1;
  for (size_t p = 0; p < shared->plan.num_operators(); ++p) {
    if (shared->plan.op(static_cast<int>(p)).window == Window::Tumbling(30)) {
      shared_t30 = static_cast<int>(p);
    }
    if (!shared->plan.op(static_cast<int>(p)).exposed) {
      factor = static_cast<int>(p);
    }
  }
  ASSERT_GE(shared_t30, 0);
  ASSERT_GE(factor, 0);
  EXPECT_EQ(local[0][shared_t30], 1);
  EXPECT_EQ(local[1][shared_t30], 0);

  // The engine's own blocks, unrouted.
  BlockLogSink engine;
  PlanExecutor(shared->plan, {.num_keys = kKeys}, &engine).Run(events);
  ASSERT_FALSE(engine.blocks.empty());

  std::vector<BlockLogSink> routed(queries.size());
  RoutingSink router(*shared, queries, {&routed[0], &routed[1]});
  PlanExecutor(shared->plan, {.num_keys = kKeys}, &router).Run(events);
  // The same results routed one at a time through OnResult.
  std::vector<CollectingSink> per_result(queries.size());
  RoutingSink result_router(*shared, queries,
                            {&per_result[0], &per_result[1]});
  for (const LoggedBlock& b : engine.blocks) {
    for (size_t i = 0; i < b.keys.size(); ++i) {
      result_router.OnResult(
          WindowResult{b.op, b.start, b.end, b.keys[i], b.values[i]});
    }
  }

  size_t shared_blocks = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    // Exactly one block per engine block of a subscribed operator, under
    // the query's local id, with the engine's keys and values.
    std::vector<LoggedBlock> expected;
    for (const LoggedBlock& b : engine.blocks) {
      const int id = local[q][static_cast<size_t>(b.op)];
      if (id < 0) continue;
      expected.push_back(b);
      expected.back().op = id;
      if (b.op == shared_t30) ++shared_blocks;
    }
    EXPECT_EQ(routed[q].blocks, expected);
    // Flattened, the blocks are what the per-result path delivers.
    std::vector<WindowResult> flattened;
    for (const LoggedBlock& b : routed[q].blocks) {
      for (size_t i = 0; i < b.keys.size(); ++i) {
        flattened.push_back({b.op, b.start, b.end, b.keys[i], b.values[i]});
      }
    }
    const std::vector<WindowResult>& reference = per_result[q].results();
    ASSERT_EQ(flattened.size(), reference.size());
    for (size_t i = 0; i < flattened.size(); ++i) {
      EXPECT_EQ(std::tie(flattened[i].operator_id, flattened[i].start,
                         flattened[i].end, flattened[i].key,
                         flattened[i].value),
                std::tie(reference[i].operator_id, reference[i].start,
                         reference[i].end, reference[i].key,
                         reference[i].value))
          << "result " << i;
    }
  }
  EXPECT_GT(shared_blocks, 0u);

  // A block of the unsubscribed factor operator reaches no query.
  const uint32_t keys[] = {0, 2};
  const double values[] = {1.5, -2.5};
  const size_t before[] = {routed[0].blocks.size(), routed[1].blocks.size()};
  router.OnBlock(factor, 0, 10, keys, values, 2);
  EXPECT_EQ(routed[0].blocks.size(), before[0]);
  EXPECT_EQ(routed[1].blocks.size(), before[1]);
}

TEST(MultiQuery, SharedExecutionDoesFewerOps) {
  // The IoT Central shape: five dashboards, one device stream.
  std::vector<StreamQuery> queries;
  for (const char* spec : {"{T(20)}", "{T(40)}", "{T(60)}", "{T(80)}",
                           "{T(120)}"}) {
    queries.push_back(MakeQuery(spec));
  }
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize(queries);
  ASSERT_TRUE(shared.ok());

  std::vector<Event> events = GenerateSyntheticStream(24000, 1, 6);
  CountingSink shared_sink;
  PlanExecutor shared_exec(shared->plan, {.num_keys = 1}, &shared_sink);
  shared_exec.Run(events);

  uint64_t independent_ops = 0;
  for (const StreamQuery& q : queries) {
    QueryPlan original = QueryPlan::Original(q.windows, q.agg);
    CountingSink sink;
    PlanExecutor exec(original, {.num_keys = 1}, &sink);
    exec.Run(events);
    independent_ops += exec.TotalAccumulateOps();
  }
  EXPECT_LT(shared_exec.TotalAccumulateOps(), independent_ops / 2);
}

}  // namespace
}  // namespace fw
