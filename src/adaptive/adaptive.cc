#include "adaptive/adaptive.h"

#include "common/logging.h"

namespace fw {

RateEstimator::RateEstimator(double alpha) : alpha_(alpha) {
  FW_CHECK_GT(alpha, 0.0);
  FW_CHECK_LE(alpha, 1.0);
}

void RateEstimator::ObserveBatch(uint64_t events, TimeT duration) {
  if (duration <= 0) {
    pending_events_ += events;  // Instantaneous burst; fold in later.
    return;
  }
  double observed = static_cast<double>(events + pending_events_) /
                    static_cast<double>(duration);
  pending_events_ = 0;
  if (!has_observations_) {
    rate_ = observed;
    has_observations_ = true;
  } else {
    rate_ = alpha_ * observed + (1.0 - alpha_) * rate_;
  }
}

double RateEstimator::rate() const { return rate_; }

bool PlansStructurallyEqual(const QueryPlan& a, const QueryPlan& b) {
  if (a.num_operators() != b.num_operators()) return false;
  if (a.agg() != b.agg()) return false;
  for (size_t i = 0; i < a.num_operators(); ++i) {
    const PlanOperator& x = a.op(static_cast<int>(i));
    const PlanOperator& y = b.op(static_cast<int>(i));
    if (!(x.window == y.window) || x.parent != y.parent ||
        x.exposed != y.exposed || x.is_factor != y.is_factor) {
      return false;
    }
  }
  return true;
}

}  // namespace fw
