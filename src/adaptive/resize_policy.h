#ifndef FW_ADAPTIVE_RESIZE_POLICY_H_
#define FW_ADAPTIVE_RESIZE_POLICY_H_

#include <cstdint>

namespace fw {

/// One sampled observation of the running executor, in the units the
/// policy decides on. The session fills this from ShardedExecutor and
/// its rate estimator; the policy touches neither, so its decisions are a
/// pure function of (options, signal, hysteresis state) and can be pinned
/// by plain unit tests.
struct ResizeSignal {
  /// Shards the executor is currently running with (1 == inline mode).
  uint32_t current_shards = 1;

  /// Mean hand-off ring occupancy in [0, 1]. Always 0 in inline mode —
  /// there are no rings — which is exactly why occupancy alone can never
  /// justify scaling back out of 1 shard.
  double ring_occupancy = 0.0;

  /// True once `observed_rate` is backed by at least one rate sample.
  bool rate_valid = false;

  /// Observed event rate in events per event-time unit (the measured η).
  /// Event-time based, so it is deterministic for a given input stream —
  /// unlike a wall-clock events/sec reading, replays reproduce it exactly.
  double observed_rate = 0.0;
};

/// Decides shard-count changes from blended occupancy / throughput
/// signals, with scale-down hysteresis.
///
/// The legacy monitor was occupancy-only, which has a structural blind
/// spot: inline mode has no rings, so occupancy reads 0 forever and the
/// monitor can neither confidently scale *into* 1 shard (0 occupancy
/// after the switch would look permanently cold) nor ever scale back
/// out. The blended policy adds a second signal, the observed event
/// rate, which stays measurable at 1 shard:
///
///   scale up    occupancy >= scale_up_occupancy
///               OR observed rate > target_rate_per_shard * shards
///   scale down  occupancy <= scale_down_occupancy
///               AND observed rate <= target_rate_per_shard * (shards/2)
///               for scale_down_checks consecutive samples
///
/// The rate term only participates when target_rate_per_shard is set
/// (non-zero); unset, the policy degrades to the legacy occupancy-only
/// behavior, including its refusal to scale below 2 shards. With a rate
/// target configured, the scale-down floor drops to max(min_shards, 1):
/// the rate signal can prove a trough is real from inside inline mode,
/// so entering it is no longer a one-way door.
///
/// Hysteresis contract: Decide() counts consecutive cold samples and
/// proposes a halving only once the count reaches scale_down_checks. The
/// caller must report back what became of a proposal — OnApplied() after
/// a successful resize, OnVetoed() when the proposal was rejected
/// downstream (width no-op, predicted-gain veto, resize failure). Both
/// reset the streak; forgetting OnVetoed() is precisely the saturation
/// bug this type exists to fix (every subsequent sample re-attempting a
/// hopeless resize with no backoff).
class ResizePolicy {
 public:
  /// The constructor reads 0 shards or checks as 1, a max_shards below
  /// min_shards as min_shards, and a negative rate target as 0, so a
  /// session that never enables the monitor cannot abort on its knobs.
  struct Options {
    /// Whether StreamSession runs the monitor at all (its
    /// Options::auto_resize); the policy itself ignores it.
    bool enabled = false;
    /// Bounds on the proposed shard count. min_shards may be 1; whether
    /// the *policy* will go that low also depends on a rate target (see
    /// class comment).
    uint32_t min_shards = 1;
    uint32_t max_shards = 8;

    /// Occupancy thresholds, as in the legacy monitor.
    double scale_up_occupancy = 0.5;
    double scale_down_occupancy = 0.02;

    /// Consecutive cold samples required before proposing a scale-down.
    uint32_t scale_down_checks = 4;

    /// Events per event-time unit one shard is expected to absorb.
    /// 0 disables the rate term (legacy occupancy-only behavior).
    double target_rate_per_shard = 0.0;
  };

  explicit ResizePolicy(const Options& options);

  /// Proposes a shard count for the next topology. Returning
  /// `signal.current_shards` means hold. Never proposes outside
  /// [min_shards, max_shards]; a current count already outside the bounds
  /// is proposed back into them.
  uint32_t Decide(const ResizeSignal& signal);

  /// The last proposal was applied (executor resized). Resets hysteresis.
  void OnApplied();

  /// The last proposal was rejected downstream. Resets hysteresis so the
  /// next streak is counted from scratch instead of re-firing every
  /// sample.
  void OnVetoed();

  /// Current cold-sample streak (test hook).
  uint32_t consecutive_low() const { return low_checks_; }

 private:
  bool Hot(const ResizeSignal& signal) const;
  bool Cold(const ResizeSignal& signal) const;

  Options options_;
  uint32_t low_checks_ = 0;
};

}  // namespace fw

#endif  // FW_ADAPTIVE_RESIZE_POLICY_H_
