// Property tests for the central correctness claim: rewritten plans (with
// and without factor windows) and the slicing baseline produce exactly the
// same results as the original plan, across generated window sets,
// aggregates, and datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "exec/reorderer.h"
#include "factor/optimizer.h"
#include "harness/runner.h"
#include "workload/datagen.h"
#include "workload/generator.h"

namespace fw {
namespace {

struct EquivParam {
  bool tumbling;
  bool sequential;
  AggFn agg;
  CoverageSemantics semantics;
  uint32_t num_keys;
  bool debs_like;
  uint64_t seed;
};

class EquivalenceSweep : public ::testing::TestWithParam<EquivParam> {};

TEST_P(EquivalenceSweep, RewrittenPlansMatchOriginal) {
  EquivParam param = GetParam();
  // Small seeds keep hyper-periods small relative to the stream so many
  // full windows close.
  WindowGenConfig config;
  config.seed_ranges = {2, 5};
  config.seed_slides = {2, 5};
  config.kr = 10;
  config.ks = 10;
  Rng rng(param.seed);
  WindowSet set =
      param.sequential
          ? SequentialGenWindowSet(4, param.tumbling, &rng, config)
          : RandomGenWindowSet(4, param.tumbling, &rng, config);

  std::vector<Event> events =
      param.debs_like
          ? GenerateDebsLikeStream(6000, param.num_keys, param.seed)
          : GenerateSyntheticStream(6000, param.num_keys, param.seed);

  QueryPlan original = QueryPlan::Original(set, param.agg);
  MinCostWcg without = FindMinCostWcg(set, param.semantics);
  MinCostWcg with = OptimizeWithFactorWindows(set, param.semantics);
  QueryPlan plan_without = QueryPlan::FromMinCostWcg(without, param.agg);
  QueryPlan plan_with = QueryPlan::FromMinCostWcg(with, param.agg);

  // Exact equality where the state machine is order/partition exact:
  // extrema and counts, FIRST/LAST (time-ordered merges), and the
  // integer-binned sketches. Floating-point sums get an epsilon.
  const bool exact =
      param.agg == Agg("MIN") || param.agg == Agg("MAX") ||
      param.agg == Agg("COUNT") || param.agg == Agg("FIRST") ||
      param.agg == Agg("LAST") || param.agg == Agg("P99") ||
      param.agg == Agg("DISTINCT_COUNT");
  double tolerance = exact ? 0.0 : 1e-9;
  EXPECT_TRUE(VerifyEquivalence(original, plan_without, events,
                                param.num_keys, tolerance)
                  .ok())
      << "w/o FW: " << set.ToString();
  EXPECT_TRUE(VerifyEquivalence(original, plan_with, events, param.num_keys,
                                tolerance)
                  .ok())
      << "w/ FW: " << set.ToString();
  EXPECT_TRUE(VerifySlicingEquivalence(set, param.agg, original, events,
                                       param.num_keys, tolerance)
                  .ok())
      << "slicing: " << set.ToString();
}

std::vector<EquivParam> AllParams() {
  std::vector<EquivParam> params;
  uint64_t seed = 1;
  for (bool tumbling : {true, false}) {
    for (bool sequential : {true, false}) {
      // Aggregate/semantics pairings that are valid per §III-A: MIN/MAX
      // under either semantics; additive aggregates only under
      // partitioned-by.
      std::vector<std::pair<AggFn, CoverageSemantics>> combos = {
          {Agg("MIN"), CoverageSemantics::kCoveredBy},
          {Agg("MAX"), CoverageSemantics::kCoveredBy},
          {Agg("MIN"), CoverageSemantics::kPartitionedBy},
          {Agg("SUM"), CoverageSemantics::kPartitionedBy},
          {Agg("COUNT"), CoverageSemantics::kPartitionedBy},
          {Agg("AVG"), CoverageSemantics::kPartitionedBy},
          {Agg("STDEV"), CoverageSemantics::kPartitionedBy},
          {Agg("VARIANCE"), CoverageSemantics::kPartitionedBy},
          {Agg("RANGE"), CoverageSemantics::kCoveredBy},
          // Registry-era functions: order-sensitive merges and both
          // sketch-state UDAFs, through the same rewriting machinery.
          {Agg("FIRST"), CoverageSemantics::kPartitionedBy},
          {Agg("LAST"), CoverageSemantics::kPartitionedBy},
          {Agg("P99"), CoverageSemantics::kPartitionedBy},
          {Agg("DISTINCT_COUNT"), CoverageSemantics::kCoveredBy},
          {Agg("DISTINCT_COUNT"), CoverageSemantics::kPartitionedBy},
      };
      for (const auto& [agg, semantics] : combos) {
        params.push_back(EquivParam{tumbling, sequential, agg, semantics,
                                    /*num_keys=*/1, /*debs_like=*/false,
                                    seed++});
      }
    }
  }
  // Keyed and DEBS-like spot checks.
  params.push_back(EquivParam{true, true, Agg("MIN"),
                              CoverageSemantics::kPartitionedBy, 4, false,
                              seed++});
  params.push_back(EquivParam{false, false, Agg("MIN"),
                              CoverageSemantics::kCoveredBy, 4, false,
                              seed++});
  params.push_back(EquivParam{true, false, Agg("SUM"),
                              CoverageSemantics::kPartitionedBy, 1, true,
                              seed++});
  params.push_back(EquivParam{false, true, Agg("MAX"),
                              CoverageSemantics::kCoveredBy, 1, true,
                              seed++});
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, EquivalenceSweep,
                         ::testing::ValuesIn(AllParams()));

// Disordered ingestion composed with plan rewriting: a bounded-disorder
// stream released through a Reorderer (the serving path's one reorder
// stage, ahead of partitioning) at a max_delay watermark into the
// factor-window plan must match the sorted stream fed into the original
// plan.
TEST(DisorderedEquivalence, ReorderedFactorPlanMatchesSortedOriginal) {
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40)}").value();
  std::vector<Event> ordered = GenerateSyntheticStream(8000, 2, 77);
  std::vector<Event> shuffled = ordered;
  Rng rng(78);
  for (size_t block = 0; block + 10 <= shuffled.size(); block += 10) {
    std::shuffle(shuffled.begin() + static_cast<long>(block),
                 shuffled.begin() + static_cast<long>(block + 10),
                 rng.engine());
  }

  QueryPlan original = QueryPlan::Original(set, Agg("MIN"));
  CollectingSink reference;
  ExecutePlan(original, ordered, 2, &reference, nullptr, nullptr);

  MinCostWcg wcg =
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy);
  QueryPlan rewritten = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  CollectingSink actual;
  PlanExecutor executor(rewritten, {.num_keys = 2}, &actual);
  auto feed = [&](const Event& e) { executor.Push(e); };
  constexpr TimeT kMaxDelay = 20;
  Reorderer reorderer;
  TimeT watermark = std::numeric_limits<TimeT>::min();
  uint64_t seq = 0;
  for (const Event& e : shuffled) {
    ASSERT_GE(e.timestamp, watermark) << "late event at seq " << seq;
    reorderer.Buffer(e, seq++);
    watermark = std::max(watermark, e.timestamp - kMaxDelay);
    reorderer.ReleaseThrough(watermark, feed);
  }
  reorderer.ReleaseAll(feed);
  executor.Finish();
  EXPECT_EQ(reference.ToMap(), actual.ToMap());
}

// The MEDIAN fallback: the optimizer refuses, the original plan runs.
TEST(HolisticFallback, MedianRunsUnshared) {
  WindowSet set = WindowSet::Parse("{T(10), T(20)}").value();
  EXPECT_FALSE(OptimizeQuery(set, Agg("MEDIAN")).ok());
  QueryPlan original = QueryPlan::Original(set, Agg("MEDIAN"));
  std::vector<Event> events = GenerateSyntheticStream(500, 1, 42);
  RunStats stats = RunPlan(original, events, 1);
  EXPECT_EQ(stats.results, 50u + 25u);
}

// Ops-vs-model property: on whole hyper-periods the engine's op count for
// a rewritten plan equals the model cost times the number of periods.
struct OpsParam {
  const char* spec;
  CoverageSemantics semantics;
};

class OpsModelSweep : public ::testing::TestWithParam<OpsParam> {};

TEST_P(OpsModelSweep, EngineOpsTrackModelCost) {
  WindowSet set = WindowSet::Parse(GetParam().spec).value();
  CostModel model(set);
  ASSERT_TRUE(model.exact_hyper_period().has_value());
  uint64_t R = *model.exact_hyper_period();
  size_t periods = 2000 / R + 2;
  std::vector<Event> events =
      GenerateSyntheticStream(periods * R, 1, 11);
  MinCostWcg wcg = OptimizeWithFactorWindows(set, GetParam().semantics);
  QueryPlan plan = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  RunStats stats = RunPlan(plan, events, 1);
  double predicted = static_cast<double>(periods) * wcg.total_cost;
  if (set.AllTumbling()) {
    // Tumbling sets are exact: every instance tiles the hyper-period.
    EXPECT_DOUBLE_EQ(static_cast<double>(stats.ops), predicted)
        << set.ToString();
  } else {
    // Hopping windows: Eq. 1 counts the n instances that fit a single
    // period end-to-end, while steady-state execution opens R/s per
    // period, so the engine runs within a few percent above the model.
    EXPECT_NEAR(static_cast<double>(stats.ops) / predicted, 1.0, 0.10)
        << set.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sets, OpsModelSweep,
    ::testing::Values(
        OpsParam{"{T(20), T(30), T(40)}", CoverageSemantics::kPartitionedBy},
        OpsParam{"{T(10), T(20), T(30), T(40)}",
                 CoverageSemantics::kPartitionedBy},
        OpsParam{"{T(4), T(8), T(16)}", CoverageSemantics::kPartitionedBy},
        OpsParam{"{W(8, 2), W(10, 2), W(12, 2)}",
                 CoverageSemantics::kCoveredBy}));

}  // namespace
}  // namespace fw
