// The blended auto-resize decision policy (adaptive/resize_policy.h) is
// a pure function of (options, signal, hysteresis state), so every
// branch of the scale-up/scale-down contract — and in particular the
// reset-on-veto backoff whose absence was the saturation bug — pins
// down with plain unit tests, no executor involved.

#include "adaptive/resize_policy.h"

#include <gtest/gtest.h>

namespace fw {
namespace {

ResizeSignal At(uint32_t shards, double occupancy) {
  ResizeSignal signal;
  signal.current_shards = shards;
  signal.ring_occupancy = occupancy;
  return signal;
}

ResizeSignal AtRate(uint32_t shards, double rate) {
  ResizeSignal signal;
  signal.current_shards = shards;
  signal.ring_occupancy = 0.0;  // Inline mode reads 0 regardless of load.
  signal.rate_valid = true;
  signal.observed_rate = rate;
  return signal;
}

// --- Legacy occupancy-only behavior ----------------------------------------

TEST(ResizePolicy, HotOccupancyDoublesImmediately) {
  ResizePolicy policy({.scale_down_checks = 2});
  EXPECT_EQ(policy.Decide(At(2, 0.9)), 4u);
  // No hysteresis on the way up, and the cap holds.
  EXPECT_EQ(policy.Decide(At(8, 1.0)), 8u);
}

TEST(ResizePolicy, ColdStreakHalvesAfterTheConfiguredChecks) {
  ResizePolicy policy({.scale_down_checks = 3});
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);  // Streak 1: hold.
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);  // Streak 2: hold.
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);  // Streak 3: propose.
}

TEST(ResizePolicy, WarmSampleBreaksTheColdStreak) {
  ResizePolicy policy({.scale_down_checks = 2});
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.3)), 4u);  // Neither hot nor cold.
  EXPECT_EQ(policy.consecutive_low(), 0u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);  // Counting starts over.
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);
}

TEST(ResizePolicy, WithoutARateTargetNeverScalesIntoInline) {
  // Occupancy reads 0 at 1 shard no matter the load, so the legacy
  // monitor refuses the one-way door: floor 2 even with min_shards 1.
  ResizePolicy policy({.min_shards = 1, .scale_down_checks = 1});
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);
  policy.OnApplied();
  EXPECT_EQ(policy.Decide(At(2, 0.0)), 2u);  // Held at the floor.
  EXPECT_EQ(policy.Decide(At(2, 0.0)), 2u);
}

// --- Throughput (rate) signal ----------------------------------------------

TEST(ResizePolicy, RateTargetDropsTheFloorToInline) {
  ResizePolicy policy({.min_shards = 1,
                       .scale_down_checks = 1,
                       .target_rate_per_shard = 10.0});
  // η̂ = 3 fits on 1 shard (3 <= 10 * max(2/2, 1)): into inline mode.
  EXPECT_EQ(policy.Decide(AtRate(2, 3.0)), 1u);
}

TEST(ResizePolicy, RateAboveTargetScalesUpFromInline) {
  // The signal that makes inline mode recoverable: occupancy is 0 (no
  // rings), but the observed rate exceeds what 1 shard should absorb.
  ResizePolicy policy({.target_rate_per_shard = 10.0});
  EXPECT_EQ(policy.Decide(AtRate(1, 25.0)), 2u);
  policy.OnApplied();
  EXPECT_EQ(policy.Decide(AtRate(2, 25.0)), 4u);
  policy.OnApplied();
  EXPECT_EQ(policy.Decide(AtRate(4, 25.0)), 4u);  // 25 <= 10 * 4: hold.
}

TEST(ResizePolicy, ScaleDownRequiresTheHalvedTopologyToAbsorbTheRate) {
  ResizePolicy policy({.min_shards = 1,
                       .scale_down_checks = 1,
                       .target_rate_per_shard = 10.0});
  // Cold rings, but η̂ = 25 would overload 2 shards: hold at 4.
  EXPECT_EQ(policy.Decide(AtRate(4, 25.0)), 4u);
  // η̂ = 15 fits the halved width (15 <= 10 * 2): halve.
  EXPECT_EQ(policy.Decide(AtRate(4, 15.0)), 2u);
}

TEST(ResizePolicy, UnprovenRateBlocksScaleDownsInRateMode) {
  // Until the estimator has a real observation the trough is unproven;
  // scaling down on rate_valid = false would act on the 0 default.
  ResizePolicy policy({.min_shards = 1,
                       .scale_down_checks = 1,
                       .target_rate_per_shard = 10.0});
  ResizeSignal blind = At(4, 0.0);
  EXPECT_EQ(policy.Decide(blind), 4u);
  EXPECT_EQ(policy.Decide(blind), 4u);
  EXPECT_EQ(policy.consecutive_low(), 0u);
}

// --- Hysteresis bookkeeping (the saturation regression) --------------------

TEST(ResizePolicy, VetoResetsTheColdStreak) {
  // Regression: a vetoed scale-down (width no-op, predicted-gain
  // rejection, resize failure) used to leave the streak saturated, so
  // every later sample re-proposed the hopeless resize with no backoff.
  ResizePolicy policy({.scale_down_checks = 3});
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);  // Proposal fires.
  policy.OnVetoed();
  EXPECT_EQ(policy.consecutive_low(), 0u);
  // The next proposal needs a full fresh streak, not one sample.
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);
}

TEST(ResizePolicy, ApplyResetsTheColdStreakToo) {
  ResizePolicy policy({.min_shards = 1,
                       .scale_down_checks = 2,
                       .target_rate_per_shard = 10.0});
  EXPECT_EQ(policy.Decide(AtRate(4, 1.0)), 4u);
  EXPECT_EQ(policy.Decide(AtRate(4, 1.0)), 2u);
  policy.OnApplied();
  // At the new width the count restarts from zero.
  EXPECT_EQ(policy.Decide(AtRate(2, 1.0)), 2u);
  EXPECT_EQ(policy.Decide(AtRate(2, 1.0)), 1u);
}

TEST(ResizePolicy, HotSampleResetsTheColdStreak) {
  ResizePolicy policy({.scale_down_checks = 2});
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.9)), 8u);  // Hot: streak wiped.
  policy.OnVetoed();
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 4u);
  EXPECT_EQ(policy.Decide(At(4, 0.0)), 2u);
}

// --- Out-of-bounds widths ---------------------------------------------------

TEST(ResizePolicy, OutOfBoundsWidthIsClampedStraightBack) {
  ResizePolicy policy({.min_shards = 2, .max_shards = 4,
                       .scale_down_checks = 1});
  // Below min: proposed up regardless of the (cold) signal.
  EXPECT_EQ(policy.Decide(At(1, 0.0)), 2u);
  // Above max: proposed down without waiting for a cold streak.
  EXPECT_EQ(policy.Decide(At(8, 0.9)), 4u);
  // The clamp restarts the streak: it was measured on a topology the
  // bounds no longer permit.
  EXPECT_EQ(policy.consecutive_low(), 0u);
}

}  // namespace
}  // namespace fw
