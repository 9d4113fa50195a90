#include "exec/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "cost/min_cost.h"
#include "factor/optimizer.h"
#include "harness/experiments.h"
#include "multi/multi_query.h"
#include "workload/datagen.h"

namespace fw {
namespace {

WindowSet Tumblings(std::initializer_list<TimeT> ranges) {
  WindowSet set;
  for (TimeT r : ranges) EXPECT_TRUE(set.Add(Window::Tumbling(r)).ok());
  return set;
}

std::vector<Event> UnitStream(TimeT length) {
  std::vector<Event> events;
  for (TimeT t = 0; t < length; ++t) {
    events.push_back(Event{t, 0, static_cast<double>(t % 17)});
  }
  return events;
}

TEST(Engine, OriginalPlanAllRootsSeeEveryEvent) {
  WindowSet set = Tumblings({10, 20});
  QueryPlan plan = QueryPlan::Original(set, Agg("MIN"));
  CountingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  EXPECT_EQ(executor.num_roots(), 2u);
  executor.Run(UnitStream(40));
  // Tumbling windows: one op per event per window.
  EXPECT_EQ(executor.TotalAccumulateOps(), 80u);
  // 4 instances of T(10) + 2 of T(20).
  EXPECT_EQ(sink.count(), 6u);
}

TEST(Engine, RewrittenPlanSingleRoot) {
  MinCostWcg wcg = FindMinCostWcg(Tumblings({10, 20, 30, 40}),
                                  CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  CountingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  EXPECT_EQ(executor.num_roots(), 1u);
  executor.Run(UnitStream(120));
  // T(10): 120 raw ops; T(20): 12 subaggs * ... per-instance merges:
  // 6 instances * 2 = 12; T(30): 4 * 3 = 12; T(40): 3 * 2 = 6.
  EXPECT_EQ(executor.TotalAccumulateOps(), 120u + 12u + 12u + 6u);
  // Results: 12 + 6 + 4 + 3 windows.
  EXPECT_EQ(sink.count(), 25u);
}

TEST(Engine, OpsMatchModelCostOnFullHyperPeriods) {
  // Engine op counts equal the model's total cost when the stream length
  // is a whole number of hyper-periods (here 2R = 240).
  WindowSet set = Tumblings({10, 20, 30, 40});
  MinCostWcg wcg =
      FindMinCostWcg(set, CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  CountingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  executor.Run(UnitStream(240));
  EXPECT_EQ(static_cast<double>(executor.TotalAccumulateOps()),
            2.0 * wcg.total_cost);
}

TEST(Engine, FactorWindowPlanOpsMatchModel) {
  WindowSet set = Tumblings({20, 30, 40});
  MinCostWcg wcg =
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  CountingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  executor.Run(UnitStream(240));
  EXPECT_EQ(static_cast<double>(executor.TotalAccumulateOps()),
            2.0 * wcg.total_cost);  // 2 * 150.
}

TEST(Engine, TopologicalFlushDeliversTailSubAggregates) {
  // Stream ends mid-window: the tail partial T(10) instance must still
  // reach T(20) before it flushes.
  MinCostWcg wcg = FindMinCostWcg(Tumblings({10, 20}),
                                  CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("SUM"));
  CollectingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  std::vector<Event> events;
  for (TimeT t = 0; t < 15; ++t) events.push_back(Event{t, 0, 1.0});
  executor.Run(events);
  // T(20)'s partial [0,20) must contain all 15 events.
  bool found = false;
  for (const WindowResult& r : sink.results()) {
    if (r.start == 0 && r.end == 20) {
      found = true;
      EXPECT_DOUBLE_EQ(r.value, 15.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Engine, HolisticPlanRuns) {
  WindowSet set = Tumblings({10, 20});
  QueryPlan plan = QueryPlan::Original(set, Agg("MEDIAN"));
  CollectingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  executor.Run(UnitStream(20));
  // T(10): 2 instances; T(20): 1.
  EXPECT_EQ(sink.results().size(), 3u);
  EXPECT_GT(executor.TotalAccumulateOps(), 0u);
}

TEST(EngineDeathTest, HolisticSharedPlanRejected) {
  MinCostWcg wcg = FindMinCostWcg(Tumblings({10, 20}),
                                  CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("MEDIAN"));
  CollectingSink sink;
  EXPECT_DEATH(PlanExecutor(plan, {.num_keys = 1}, &sink), "holistic");
}

TEST(Engine, ResetAllowsRerun) {
  WindowSet set = Tumblings({10});
  QueryPlan plan = QueryPlan::Original(set, Agg("SUM"));
  CountingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  executor.Run(UnitStream(20));
  uint64_t first_ops = executor.TotalAccumulateOps();
  executor.Reset();
  EXPECT_EQ(executor.TotalAccumulateOps(), 0u);
  executor.Run(UnitStream(20));
  EXPECT_EQ(executor.TotalAccumulateOps(), first_ops);
}

TEST(Engine, ExecutePlanHelperReportsThroughputAndOps) {
  WindowSet set = Tumblings({10, 20});
  QueryPlan plan = QueryPlan::Original(set, Agg("MIN"));
  CountingSink sink;
  double throughput = 0.0;
  uint64_t ops = 0;
  ExecutePlan(plan, UnitStream(5000), 1, &sink, &throughput, &ops);
  EXPECT_GT(throughput, 0.0);
  EXPECT_EQ(ops, 10000u);
}

// Order-sensitive FNV-1a over every result field in delivery order, and
// an order-insensitive content hash: the XOR of each result's own FNV-1a
// over the same fields, which only the delivered multiset moves.
class SequenceHashSink : public ResultSink {
 public:
  void OnResult(const WindowResult& r) override {
    ++count_;
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.value));
    std::memcpy(&bits, &r.value, sizeof(bits));
    uint64_t own = kFnvBasis;
    for (const uint64_t v :
         {static_cast<uint64_t>(r.operator_id), static_cast<uint64_t>(r.start),
          static_cast<uint64_t>(r.end), static_cast<uint64_t>(r.key), bits}) {
      hash_ = Mix(hash_, v);
      own = Mix(own, v);
    }
    content_ ^= own;
  }

  uint64_t count() const { return count_; }
  uint64_t hash() const { return hash_; }
  uint64_t content() const { return content_; }

 private:
  static constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

  static uint64_t Mix(uint64_t hash, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 0x100000001b3ull;
    }
    return hash;
  }

  uint64_t count_ = 0;
  uint64_t hash_ = kFnvBasis;
  uint64_t content_ = 0;
};

// A self-contained splitmix64, so the stream (and the pinned constants
// below) do not depend on the standard library's distributions.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// 300 keys span five 64-bit words, the last one partial. Most events use
// a few hot keys on word edges, so most factor instances touch few keys;
// the rest spread over the whole key space. Every 500 events the stream
// jumps past the largest window range, leaving instances with no data.
std::vector<Event> SparseKeyedStream() {
  constexpr uint32_t kHot[] = {0, 63, 64, 130, 255, 256, 299};
  SplitMix rng(2024);
  std::vector<Event> events;
  TimeT t = 0;
  for (int i = 0; i < 6000; ++i) {
    t += static_cast<TimeT>(rng.Next() % 3);
    if (i % 500 == 499) t += 150;
    const uint64_t pick = rng.Next();
    const uint32_t key = pick % 4 != 0
                             ? kHot[(pick >> 8) % std::size(kHot)]
                             : static_cast<uint32_t>((pick >> 8) % 300);
    // Non-dyadic values make SUM's bits depend on the fold order.
    const double value =
        static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * 100.0 - 50.0;
    events.push_back(Event{t, key, value});
  }
  return events;
}

TEST(Engine, TwoLevelFactorPlanDeliverySequenceIsPinned) {
  // Hopping and tumbling windows over a T(6) factor root, with T(36) a
  // second, unexposed factor under T(18). The constants pin the order in
  // which results are delivered, every value bit, the op counts and the
  // closes (DESIGN.md §4 states the delivery-order rule). The content
  // hash pins the delivered multiset alone, which no change of delivery
  // order may move.
  WindowSet set =
      WindowSet::Parse("{T(12), T(18), W(36, 18), W(72, 36), W(60, 30)}")
          .value();
  MinCostWcg wcg =
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("SUM"));
  std::vector<std::string> shape;
  for (const PlanOperator& op : plan.operators()) {
    shape.push_back(op.label + "<-" +
                    (op.parent < 0 ? "raw" : plan.op(op.parent).label) +
                    (op.exposed ? "" : " factor"));
  }
  ASSERT_EQ(shape, (std::vector<std::string>{
                       "T(12)<-T(6)", "T(18)<-T(6)", "W(36, 18)<-T(18)",
                       "W(72, 36)<-T(36)", "W(60, 30)<-T(6)",
                       "T(36)<-T(18) factor", "T(6)<-raw factor"}));

  const std::vector<Event> events = SparseKeyedStream();
  const std::vector<uint64_t> expected_closes = {509, 344, 356, 188,
                                                 225, 176, 1012};
  for (const bool columnar : {false, true}) {
    SequenceHashSink sink;
    PlanExecutor executor(plan, {.num_keys = 300}, &sink);
    if (columnar) {
      for (const EventColumns& chunk : SplitIntoColumns(events, 97)) {
        executor.PushColumns(chunk);
      }
      executor.Finish();
    } else {
      executor.Run(events);
    }
    SCOPED_TRACE(columnar ? "PushColumns" : "Push");
    EXPECT_EQ(sink.count(), 21094u);
    EXPECT_EQ(sink.content(), 5642620942726501372u);
    EXPECT_EQ(sink.hash(), 7896047183029666745u);
    EXPECT_EQ(executor.TotalAccumulateOps(), 40847u);
    EXPECT_EQ(executor.PerOperatorCloses(), expected_closes);
  }
}

// Records the shape of every OnBlock call and folds its results into a
// SequenceHashSink, so the flattened sequence compares with the golden
// one. The engine delivers blocks only: a per-result call fails.
class BlockShapeSink : public ResultSink {
 public:
  struct Block {
    int op;
    TimeT start;
    TimeT end;
    size_t count;
  };

  void OnResult(const WindowResult&) override {
    ADD_FAILURE() << "the engine delivered a result outside a block";
  }
  void OnBlock(int operator_id, TimeT start, TimeT end, const uint32_t* keys,
               const double* values, size_t count) override {
    EXPECT_GT(count, 0u);
    blocks.push_back({operator_id, start, end, count});
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) {
        EXPECT_LT(keys[i - 1], keys[i]) << "block " << blocks.size();
      }
      flat.OnResult(WindowResult{operator_id, start, end, keys[i], values[i]});
    }
  }

  std::vector<Block> blocks;
  SequenceHashSink flat;
};

// Whether operator `op` lies in the subtree below operator `ancestor`.
bool Descends(const QueryPlan& plan, int op, int ancestor) {
  for (int p = plan.op(op).parent; p >= 0; p = plan.op(p).parent) {
    if (p == ancestor) return true;
  }
  return false;
}

TEST(Engine, TwoLevelFactorPlanDeliversEachCloseAsPinnedBlocks) {
  // The plan and stream of TwoLevelFactorPlanDeliverySequenceIsPinned.
  // T(18) is the one exposed operator with children (W(36, 18) and the
  // T(36) factor): each of its closes is a one-key block, then the child
  // blocks its frontier move delivers, then one block of the remaining
  // keys. Every childless operator delivers a close as one block.
  const WindowSet set =
      WindowSet::Parse("{T(12), T(18), W(36, 18), W(72, 36), W(60, 30)}")
          .value();
  const QueryPlan plan = QueryPlan::FromMinCostWcg(
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy),
      Agg("SUM"));
  std::vector<bool> has_children(plan.num_operators(), false);
  for (const PlanOperator& op : plan.operators()) {
    if (op.parent >= 0) has_children[static_cast<size_t>(op.parent)] = true;
  }
  ASSERT_TRUE(has_children[1]);  // T(18), exposed.
  ASSERT_TRUE(plan.op(1).exposed);

  const std::vector<Event> events = SparseKeyedStream();
  for (const bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "PushColumns" : "Push");
    BlockShapeSink sink;
    PlanExecutor executor(plan, {.num_keys = 300}, &sink);
    if (columnar) {
      for (const EventColumns& chunk : SplitIntoColumns(events, 97)) {
        executor.PushColumns(chunk);
      }
      executor.Finish();
    } else {
      executor.Run(events);
    }
    // Flattened, the blocks are the golden per-result sequence.
    EXPECT_EQ(sink.flat.count(), 21094u);
    EXPECT_EQ(sink.flat.content(), 5642620942726501372u);
    EXPECT_EQ(sink.flat.hash(), 7896047183029666745u);

    // Index of each instance's first block; an instance whose first block
    // is still open for a second one maps to true in `split`.
    std::map<std::tuple<int, TimeT, TimeT>, size_t> first_block;
    std::map<std::tuple<int, TimeT, TimeT>, bool> split;
    std::vector<uint64_t> results(plan.num_operators(), 0);
    size_t second_blocks = 0;
    for (size_t i = 0; i < sink.blocks.size(); ++i) {
      const BlockShapeSink::Block& b = sink.blocks[i];
      const auto instance = std::make_tuple(b.op, b.start, b.end);
      results[static_cast<size_t>(b.op)] += b.count;
      const auto [it, first] = first_block.try_emplace(instance, i);
      if (first) {
        if (has_children[static_cast<size_t>(b.op)]) {
          EXPECT_EQ(b.count, 1u) << "block " << i;
          split[instance] = true;
        }
        continue;
      }
      // The second block of a close: its operator has children, its
      // first block was one key, and only blocks of the subtree that the
      // frontier move closed (all ending earlier) lie in between.
      ASSERT_TRUE(split[instance]) << "third block of an instance, " << i;
      split[instance] = false;
      ++second_blocks;
      for (size_t j = it->second + 1; j < i; ++j) {
        EXPECT_TRUE(Descends(plan, sink.blocks[j].op, b.op)) << "block " << j;
        EXPECT_LT(sink.blocks[j].end, b.end) << "block " << j;
      }
    }
    EXPECT_EQ(results, executor.PerOperatorFinalizes());
    // The shape itself, pinned: block count, second blocks, and an FNV-1a
    // hash over every block's (operator, start, end, count).
    uint64_t shape = 0xcbf29ce484222325ull;
    for (const BlockShapeSink::Block& b : sink.blocks) {
      for (const uint64_t v :
           {static_cast<uint64_t>(b.op), static_cast<uint64_t>(b.start),
            static_cast<uint64_t>(b.end), static_cast<uint64_t>(b.count)}) {
        shape = (shape ^ v) * 0x100000001b3ull;
      }
    }
    EXPECT_EQ(sink.blocks.size(), 1964u);
    EXPECT_EQ(second_blocks, 342u);
    EXPECT_EQ(shape, 498189832495474115u);
  }

  // MEDIAN: one block per instance with data.
  const QueryPlan holistic = QueryPlan::Original(set, Agg("MEDIAN"));
  BlockShapeSink sink;
  PlanExecutor executor(holistic, {.num_keys = 300}, &sink);
  executor.Run(events);
  std::set<std::tuple<int, TimeT, TimeT>> instances;
  std::vector<uint64_t> results(holistic.num_operators(), 0);
  for (const BlockShapeSink::Block& b : sink.blocks) {
    EXPECT_TRUE(instances.emplace(b.op, b.start, b.end).second)
        << "two blocks for one MEDIAN instance";
    results[static_cast<size_t>(b.op)] += b.count;
  }
  EXPECT_EQ(results, executor.PerOperatorFinalizes());
  EXPECT_EQ(sink.blocks.size(), 1622u);
}

// Records each delivered block's window end and result count, and
// `position`, which the test loop sets to the index of the event (Push)
// or chunk (PushColumns) it is about to push, and to kAtFinish before
// Finish.
class TriggerSink : public ResultSink {
 public:
  static constexpr size_t kAtFinish = std::numeric_limits<size_t>::max();

  struct Block {
    TimeT end;
    size_t position;
    size_t count;
  };

  void OnResult(const WindowResult& r) override {
    blocks.push_back({r.end, position, 1});
  }
  void OnBlock(int, TimeT, TimeT end, const uint32_t*, const double*,
               size_t count) override {
    blocks.push_back({end, position, count});
  }

  size_t position = 0;
  std::vector<Block> blocks;
};

// Runs `plan` over the ordered `events`, per event and in 97-event
// PushColumns chunks, and expects every block to arrive with its trigger
// event — the first event at or past the window's end: during that
// event's Push, or the PushColumns of the chunk holding it. A block whose
// window no event reaches past arrives at Finish.
void ExpectDeliveryAtTrigger(const QueryPlan& plan,
                             const std::vector<Event>& events,
                             uint32_t num_keys) {
  constexpr size_t kChunk = 97;
  for (const bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "PushColumns" : "Push");
    TriggerSink sink;
    PlanExecutor executor(plan, {.num_keys = num_keys}, &sink);
    if (columnar) {
      const std::vector<EventColumns> chunks = SplitIntoColumns(events, kChunk);
      for (size_t c = 0; c < chunks.size(); ++c) {
        sink.position = c;
        executor.PushColumns(chunks[c]);
      }
    } else {
      for (size_t i = 0; i < events.size(); ++i) {
        sink.position = i;
        executor.Push(events[i]);
      }
    }
    sink.position = TriggerSink::kAtFinish;
    executor.Finish();

    uint64_t results = 0;
    uint64_t off_trigger = 0;
    for (const TriggerSink::Block& b : sink.blocks) {
      results += b.count;
      const auto trigger = std::lower_bound(
          events.begin(), events.end(), b.end,
          [](const Event& e, TimeT end) { return e.timestamp < end; });
      size_t expected = TriggerSink::kAtFinish;
      if (trigger != events.end()) {
        const auto index = static_cast<size_t>(trigger - events.begin());
        expected = columnar ? index / kChunk : index;
      }
      if (b.position != expected) {
        if (off_trigger == 0) {
          ADD_FAILURE() << "first off-trigger block: end " << b.end
                        << " arrived at " << b.position << ", trigger at "
                        << expected;
        }
        off_trigger += b.count;
      }
    }
    EXPECT_GT(results, 0u);
    EXPECT_EQ(off_trigger, 0u) << "of " << results << " results";
  }
}

TEST(Engine, FactorFedInstancesDeliverAtTheirTriggerEvent) {
  // A factor-fed instance is complete once it merges the sub-aggregate of
  // the parent instance that ends with it, or once a raw reader skips
  // that instance for want of data: either way during the first event at
  // or past its end, when a raw instance ending there closes too.
  {
    SCOPED_TRACE("two-level SUM plan over a sparse stream with gaps");
    const WindowSet set =
        WindowSet::Parse("{T(12), T(18), W(36, 18), W(72, 36), W(60, 30)}")
            .value();
    const QueryPlan plan = QueryPlan::FromMinCostWcg(
        OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy),
        Agg("SUM"));
    ExpectDeliveryAtTrigger(plan, SparseKeyedStream(), 300);
  }
  {
    // The repo benchmark's dash_fw plan: eight hopping 5-window MIN
    // dashboards from the seed-42 panel, optimized jointly.
    SCOPED_TRACE("dashboard panel plan over a dense stream");
    PanelConfig panel;
    panel.tumbling = false;
    panel.set_size = 5;
    panel.num_sets = 8;
    panel.seed = 42;
    std::vector<StreamQuery> queries;
    for (WindowSet& windows : GeneratePanelWindowSets(panel)) {
      StreamQuery query;
      query.source = "s";
      query.agg = Agg("MIN");
      query.value_column = "v";
      query.per_key = true;
      query.key_column = "k";
      query.windows = std::move(windows);
      queries.push_back(std::move(query));
    }
    const Result<MultiQueryOptimizer::SharedPlan> shared =
        MultiQueryOptimizer::Optimize(queries);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    const QueryPlan& plan = shared->plan;
    ASSERT_EQ(plan.num_operators(), 38u);
    std::vector<std::string> roots;
    for (const PlanOperator& op : plan.operators()) {
      if (op.parent >= 0) continue;
      roots.push_back(op.label + (op.exposed ? "" : " factor"));
    }
    ASSERT_EQ(roots, std::vector<std::string>{"T(5) factor"});
    ExpectDeliveryAtTrigger(plan, GenerateSyntheticStream(20000, 16, 1), 16);
  }
}

// Checks the emission-order contract (DESIGN.md §4) as results arrive:
// per operator id, strictly increasing (end, start, key).
class EmissionOrderSink : public ResultSink {
 public:
  void OnResult(const WindowResult& r) override {
    all.OnResult(r);
    const auto order = std::make_tuple(r.end, r.start, r.key);
    const auto [last, first] = last_.try_emplace(r.operator_id, order);
    if (first) return;
    EXPECT_LT(last->second, order)
        << "operator " << r.operator_id << ", result " << all.results().size();
    last->second = order;
  }

  CollectingSink all;

 private:
  std::map<int, std::tuple<TimeT, TimeT, uint32_t>> last_;
};

// The sharded runtime merges per-operator result runs without sorting
// them, relying on each operator emitting in (end, start, key) order. Hold
// that across every way an executor is driven: Push, PushColumns, a
// mid-stream CloseThrough, a Checkpoint restored into a fresh executor,
// and Finish.
TEST(Engine, EveryOperatorEmitsInEndStartKeyOrder) {
  const WindowSet set =
      WindowSet::Parse("{T(12), T(18), W(36, 18), W(72, 36), W(60, 30)}")
          .value();
  const MinCostWcg wcg =
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy);
  // Over 300 keys the touched-key bitmaps span five words.
  const QueryPlan factor_plan = QueryPlan::FromMinCostWcg(wcg, Agg("SUM"));
  const QueryPlan holistic_plan = QueryPlan::Original(set, Agg("MEDIAN"));
  ASSERT_GT(factor_plan.num_operators(), set.size());  // Factor windows.
  const std::vector<Event> events = SparseKeyedStream();
  const size_t third = events.size() / 3;

  for (const QueryPlan* plan : {&factor_plan, &holistic_plan}) {
    const bool holistic = plan == &holistic_plan;
    SCOPED_TRACE(holistic ? "holistic MEDIAN plan" : "factor plan");
    CollectingSink reference;
    PlanExecutor(*plan, {.num_keys = 300}, &reference).Run(events);

    EmissionOrderSink sink;
    auto executor = std::make_unique<PlanExecutor>(
        *plan, PlanExecutor::Options{.num_keys = 300}, &sink);
    for (size_t i = 0; i < third; ++i) executor->Push(events[i]);
    const std::vector<Event> middle(events.begin() + third,
                                    events.begin() + 2 * third);
    for (const EventColumns& chunk : SplitIntoColumns(middle, 97)) {
      executor->PushColumns(chunk);
    }
    executor->CloseThrough(events[2 * third - 1].timestamp + 1);
    Result<ExecutorCheckpoint> checkpoint = executor->Checkpoint();
    if (holistic) {
      EXPECT_EQ(checkpoint.status().code(), StatusCode::kUnimplemented);
    } else {
      ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
      executor = std::make_unique<PlanExecutor>(
          *plan, PlanExecutor::Options{.num_keys = 300}, &sink);
      ASSERT_TRUE(executor->Restore(*checkpoint).ok());
    }
    const std::vector<Event> last_third(events.begin() + 2 * third,
                                        events.end());
    for (const EventColumns& chunk : SplitIntoColumns(last_third, 61)) {
      executor->PushColumns(chunk);
    }
    executor->Finish();
    // The drive emitted exactly an uninterrupted run's results.
    EXPECT_EQ(sink.all.results().size(), reference.results().size());
    EXPECT_EQ(sink.all.ToMap(), reference.ToMap());
  }
}

TEST(Engine, MultiKeyStreams) {
  WindowSet set = Tumblings({10});
  QueryPlan plan = QueryPlan::Original(set, Agg("COUNT"));
  CollectingSink sink;
  PlanExecutor executor(plan, {.num_keys = 4}, &sink);
  std::vector<Event> events;
  for (TimeT t = 0; t < 20; ++t) {
    events.push_back(Event{t, static_cast<uint32_t>(t % 4), 1.0});
  }
  executor.Run(events);
  // 2 instances x 4 keys; counts per (instance, key) are 2 or 3 and total
  // to the 20 events.
  EXPECT_EQ(sink.results().size(), 8u);
  double total = 0.0;
  for (const WindowResult& r : sink.results()) {
    EXPECT_TRUE(r.value == 2.0 || r.value == 3.0) << r.value;
    total += r.value;
  }
  EXPECT_DOUBLE_EQ(total, 20.0);
}

}  // namespace
}  // namespace fw
