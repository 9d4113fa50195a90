#ifndef FW_ADAPTIVE_ADAPTIVE_H_
#define FW_ADAPTIVE_ADAPTIVE_H_

#include <cstdint>

#include "plan/plan.h"

namespace fw {

/// Exponentially-weighted estimate of the input event rate η (events per
/// time unit), fed by batch observations.
class RateEstimator {
 public:
  /// `alpha` is the EWMA weight of the newest observation, in (0, 1].
  explicit RateEstimator(double alpha = 0.3);

  /// Records that `events` events spanned `duration` time units.
  /// Zero-duration batches (all events at one instant) are folded into
  /// the next observation.
  void ObserveBatch(uint64_t events, TimeT duration);

  /// Current estimate; 1.0 (the paper's default) before any observation.
  double rate() const;

  bool has_observations() const { return has_observations_; }

 private:
  double alpha_;
  double rate_ = 1.0;
  bool has_observations_ = false;
  uint64_t pending_events_ = 0;  // From zero-duration batches.
};

/// Structural plan equality: same windows, providers, and exposure, in
/// the same operator order. Used to detect plan switches.
bool PlansStructurallyEqual(const QueryPlan& a, const QueryPlan& b);

}  // namespace fw

#endif  // FW_ADAPTIVE_ADAPTIVE_H_
