// RuntimeProfile (cost/runtime_profile.h) is the feedback half of the
// runtime-adaptive loop: observed η̂, per-shard skew, and per-operator
// counters in the cost model's vocabulary. These tests pin the derived
// ratios, the CostModel constructor that consumes a profile, and the
// session's Profile() producer.

#include "cost/runtime_profile.h"

#include <gtest/gtest.h>

#include <vector>

#include "cost/cost_model.h"
#include "session/session.h"
#include "window/window_set.h"

namespace fw {
namespace {

TEST(RuntimeProfile, OperatorRatios) {
  RuntimeProfile::OperatorProfile op;
  op.accumulate_ops = 600;
  op.closed_instances = 30;
  op.finalized_results = 90;
  EXPECT_DOUBLE_EQ(op.ops_per_close(), 20.0);  // Measured µ.
  EXPECT_DOUBLE_EQ(op.finalize_ratio(), 3.0);  // Keys active per close.
}

TEST(RuntimeProfile, RatiosGuardAgainstZeroCloses) {
  // A factor window that has not closed an instance yet (or an unexposed
  // one that never finalizes) must not divide by zero.
  RuntimeProfile::OperatorProfile op;
  op.accumulate_ops = 100;
  EXPECT_DOUBLE_EQ(op.ops_per_close(), 0.0);
  EXPECT_DOUBLE_EQ(op.finalize_ratio(), 0.0);
}

TEST(RuntimeProfile, EtaFallsBackToTheAssumptionUntilObserved) {
  RuntimeProfile profile;
  EXPECT_FALSE(profile.has_rate());
  EXPECT_DOUBLE_EQ(profile.eta_or(1.0), 1.0);
  profile.observed_eta = 0.25;
  EXPECT_TRUE(profile.has_rate());
  EXPECT_DOUBLE_EQ(profile.eta_or(1.0), 0.25);
}

TEST(RuntimeProfile, CostModelPricesFromTheMeasuredRate) {
  WindowSet windows = WindowSet::Parse("{T(20), T(40)}").value();
  RuntimeProfile profile;
  profile.observed_eta = 4.0;
  CostModel observed(windows, profile);
  EXPECT_DOUBLE_EQ(observed.eta(), 4.0);
  // Raw scans cost η·r: the measured rate flows into instance costs.
  EXPECT_DOUBLE_EQ(observed.UnsharedInstanceCost(Window::Tumbling(20)),
                   80.0);

  // An empty profile defers to the planning-time assumption.
  CostModel assumed(windows, RuntimeProfile{}, 2.0);
  EXPECT_DOUBLE_EQ(assumed.eta(), 2.0);
}

// --- The session as profile producer ---------------------------------------

TEST(RuntimeProfile, SessionProfileReportsRateSkewAndOperators) {
  StreamSession::Options options;
  options.num_keys = 4;
  // The drift detector feeds the shared rate estimator; a huge
  // reoptimize_ratio keeps the plan untouched so this test sees pure
  // measurement.
  options.adaptive.enabled = true;
  options.monitor_interval = 256;
  options.adaptive.rate_alpha = 1.0;
  options.adaptive.reoptimize_ratio = 1e9;
  StreamSession session(options);
  ASSERT_TRUE(session
                  .AddQuery(Query().Sum("v").From("s").PerKey("k")
                                .Tumbling(20))
                  .ok());

  // Idle-ish profile: no rate yet, neutral skew, operators present.
  RuntimeProfile before = session.Profile();
  EXPECT_FALSE(before.has_rate());
  EXPECT_DOUBLE_EQ(before.key_skew, 1.0);

  // Two events per time unit: η = 2, exactly measurable in event time.
  for (int i = 0; i < 4096; ++i) {
    Event e;
    e.timestamp = i / 2;
    e.key = static_cast<uint32_t>(i % 4);
    e.value = 1.0;
    ASSERT_TRUE(session.Push(e).ok());
  }

  RuntimeProfile profile = session.Profile();
  EXPECT_TRUE(profile.has_rate());
  EXPECT_NEAR(profile.observed_eta, 2.0, 0.05);
  EXPECT_GE(profile.key_skew, 1.0);  // Inline mode: exactly 1.
  ASSERT_FALSE(profile.operators.empty());
  const RuntimeProfile::OperatorProfile& op = profile.operators.front();
  EXPECT_GT(op.accumulate_ops, 0u);
  EXPECT_GT(op.closed_instances, 0u);
  EXPECT_GT(op.ops_per_close(), 0.0);
  EXPECT_GT(op.finalize_ratio(), 0.0);

  // The profile plugs straight into the cost model: re-costing the
  // session's own windows at the measured rate doubles raw-scan costs
  // relative to the η = 1 assumption.
  WindowSet windows = WindowSet::Parse("{T(20)}").value();
  CostModel model(windows, profile, /*assumed_eta=*/1.0);
  EXPECT_NEAR(model.eta(), 2.0, 0.05);
  ASSERT_TRUE(session.Finish().ok());
}

}  // namespace
}  // namespace fw
