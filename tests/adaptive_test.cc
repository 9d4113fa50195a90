#include "adaptive/adaptive.h"

#include <gtest/gtest.h>

#include "factor/optimizer.h"

namespace fw {
namespace {

WindowSet Example7Set() {
  return WindowSet::Parse("{T(20), T(30), T(40)}").value();
}

int CountFactorOps(const QueryPlan& plan) {
  int count = 0;
  for (const PlanOperator& op : plan.operators()) {
    count += op.is_factor ? 1 : 0;
  }
  return count;
}

TEST(RateEstimator, FirstObservationSetsRate) {
  RateEstimator estimator(0.5);
  EXPECT_DOUBLE_EQ(estimator.rate(), 1.0);
  EXPECT_FALSE(estimator.has_observations());
  estimator.ObserveBatch(500, 100);  // 5 events per unit.
  EXPECT_TRUE(estimator.has_observations());
  EXPECT_DOUBLE_EQ(estimator.rate(), 5.0);
}

TEST(RateEstimator, EwmaBlending) {
  RateEstimator estimator(0.5);
  estimator.ObserveBatch(400, 100);  // 4.
  estimator.ObserveBatch(800, 100);  // 8 -> 0.5*8 + 0.5*4 = 6.
  EXPECT_DOUBLE_EQ(estimator.rate(), 6.0);
}

TEST(RateEstimator, ZeroDurationBatchesFoldIntoNext) {
  RateEstimator estimator(1.0);
  estimator.ObserveBatch(100, 0);  // Burst, deferred.
  EXPECT_FALSE(estimator.has_observations());
  estimator.ObserveBatch(100, 100);  // (100 + 100) / 100 = 2.
  EXPECT_DOUBLE_EQ(estimator.rate(), 2.0);
}

TEST(RateEstimatorDeathTest, AlphaValidation) {
  EXPECT_DEATH(RateEstimator(0.0), "alpha");
  EXPECT_DEATH(RateEstimator(1.5), "alpha");
}

// The optimizer half of the paper's §VI "dynamic cost estimates" loop
// (the session drift detector replans at the observed η; see
// elasticity_test.cc, AdaptiveSession). Example 7's factor window T(10)
// pays off only while η > 0.2: its raw scan costs η·R while it saves
// Σ n_j (η·r_j - M_j) downstream.
MinCostWcg Example7AtRate(double eta) {
  return OptimizeWithFactorWindows(Example7Set(),
                                   CoverageSemantics::kPartitionedBy,
                                   {.eta = eta});
}

int FactorOpsAtRate(double eta) {
  return CountFactorOps(QueryPlan::FromMinCostWcg(Example7AtRate(eta),
                                                  Agg("SUM")));
}

TEST(RateAwareOptimizer, LowRateEvictsFactorWindow) {
  // At η ≈ 0.05 raw reads are so cheap that sharing stops paying.
  EXPECT_EQ(FactorOpsAtRate(0.05), 0);
}

TEST(RateAwareOptimizer, UnitRateKeepsFactorWindowAtExample7Cost) {
  EXPECT_EQ(FactorOpsAtRate(1.0), 1);
  EXPECT_DOUBLE_EQ(Example7AtRate(1.0).total_cost, 150.0);
}

TEST(RateAwareOptimizer, HighRateKeepsStructureButCostsMore) {
  // Above η = 1 the Example-7 plan shape is stable; only the cost moves.
  const QueryPlan unit =
      QueryPlan::FromMinCostWcg(Example7AtRate(1.0), Agg("SUM"));
  const QueryPlan fast =
      QueryPlan::FromMinCostWcg(Example7AtRate(4.0), Agg("SUM"));
  EXPECT_TRUE(PlansStructurallyEqual(unit, fast));
  EXPECT_GT(Example7AtRate(4.0).total_cost, 150.0);  // Raw scans cost 4x.
}

TEST(PlansStructurallyEqual, DetectsDifferences) {
  WindowSet set = Example7Set();
  QueryPlan a = QueryPlan::Original(set, Agg("MIN"));
  QueryPlan b = QueryPlan::Original(set, Agg("MIN"));
  EXPECT_TRUE(PlansStructurallyEqual(a, b));
  QueryPlan c = QueryPlan::Original(set, Agg("MAX"));
  EXPECT_FALSE(PlansStructurallyEqual(a, c));
  MinCostWcg wcg =
      FindMinCostWcg(set, CoverageSemantics::kPartitionedBy);
  QueryPlan d = QueryPlan::FromMinCostWcg(wcg, Agg("MIN"));
  EXPECT_FALSE(PlansStructurallyEqual(a, d));
}

}  // namespace
}  // namespace fw
