#include "adaptive/resize_policy.h"

#include <algorithm>

namespace fw {

ResizePolicy::ResizePolicy(const Options& options) : options_(options) {
  options_.min_shards = std::max(options_.min_shards, 1u);
  options_.max_shards = std::max(options_.max_shards, options_.min_shards);
  options_.scale_down_checks = std::max(options_.scale_down_checks, 1u);
  options_.target_rate_per_shard =
      std::max(options_.target_rate_per_shard, 0.0);
}

bool ResizePolicy::Hot(const ResizeSignal& signal) const {
  if (signal.ring_occupancy >= options_.scale_up_occupancy) return true;
  if (options_.target_rate_per_shard > 0.0 && signal.rate_valid &&
      signal.observed_rate >
          options_.target_rate_per_shard *
              static_cast<double>(signal.current_shards)) {
    return true;
  }
  return false;
}

bool ResizePolicy::Cold(const ResizeSignal& signal) const {
  if (signal.ring_occupancy > options_.scale_down_occupancy) return false;
  if (options_.target_rate_per_shard > 0.0) {
    // The halved topology must still absorb the observed rate; without a
    // valid rate reading the trough is unproven, so hold.
    if (!signal.rate_valid) return false;
    const double halved = static_cast<double>(
        std::max(signal.current_shards / 2, options_.min_shards));
    if (signal.observed_rate > options_.target_rate_per_shard * halved) {
      return false;
    }
  }
  return true;
}

uint32_t ResizePolicy::Decide(const ResizeSignal& signal) {
  const uint32_t current = signal.current_shards;

  // A current count outside the configured bounds is proposed straight
  // back into them; the streak restarts because the signal was measured
  // on a topology the bounds no longer permit.
  if (current < options_.min_shards || current > options_.max_shards) {
    low_checks_ = 0;
    return std::clamp(current, options_.min_shards, options_.max_shards);
  }

  if (Hot(signal)) {
    low_checks_ = 0;
    return std::min(current * 2, options_.max_shards);
  }

  if (Cold(signal) && current > options_.min_shards) {
    // Without a rate target the policy never scales *into* inline mode:
    // occupancy reads 0 there regardless of load, so the monitor would
    // have no signal left to scale back out on. A rate target keeps the
    // throughput signal measurable at 1 shard, so the floor drops away.
    const uint32_t floor =
        options_.target_rate_per_shard > 0.0
            ? options_.min_shards
            : std::max(options_.min_shards, 2u);
    const uint32_t target = std::max(current / 2, floor);
    if (target < current && ++low_checks_ >= options_.scale_down_checks) {
      // Streak stays saturated until the caller reports OnApplied() or
      // OnVetoed(); Decide() itself does not know a proposal's fate.
      return target;
    }
    return current;
  }

  low_checks_ = 0;
  return current;
}

void ResizePolicy::OnApplied() { low_checks_ = 0; }

void ResizePolicy::OnVetoed() { low_checks_ = 0; }

}  // namespace fw
