#include "workload/datagen.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace fw {

std::vector<Event> GenerateSyntheticStream(size_t num_events,
                                           uint32_t num_keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    Event e;
    e.timestamp = static_cast<TimeT>(i);  // Constant pace, η = 1.
    e.key = num_keys > 1 ? static_cast<uint32_t>(i % num_keys) : 0;
    e.value = rng.UniformReal(0.0, 100.0);
    events.push_back(e);
  }
  return events;
}

std::vector<Event> GenerateDebsLikeStream(size_t num_events,
                                          uint32_t num_keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(num_events);
  TimeT now = 0;
  double level = 250.0;  // Mid-scale power reading.
  for (size_t i = 0; i < num_events; ++i) {
    // Jittered inter-arrival: mean 1, occasional bursts and small gaps.
    uint64_t draw = rng.Uniform(0, 9);
    TimeT delta;
    if (draw < 2) {
      delta = 0;  // Burst: same-timestamp reading.
    } else if (draw < 9) {
      delta = 1;
    } else {
      delta = static_cast<TimeT>(rng.Uniform(2, 3));  // Gap.
    }
    now += delta;
    // Bounded random walk with mild mean reversion (auto-correlated like
    // the mf01 sensor signal).
    level += rng.Gaussian() * 2.0 + (250.0 - level) * 0.001;
    level = std::clamp(level, 0.0, 500.0);
    Event e;
    e.timestamp = now;
    e.key = num_keys > 1 ? static_cast<uint32_t>(rng.Uniform(0, num_keys - 1))
                         : 0;
    e.value = level;
    events.push_back(e);
  }
  return events;
}

std::vector<EventColumns> SplitIntoColumns(const std::vector<Event>& events,
                                           size_t batch_size) {
  std::vector<EventColumns> chunks;
  if (events.empty()) return chunks;
  const size_t step = batch_size == 0 ? events.size() : batch_size;
  chunks.reserve((events.size() + step - 1) / step);
  for (size_t i = 0; i < events.size(); i += step) {
    const size_t n = std::min(step, events.size() - i);
    EventColumns chunk;
    chunk.Reserve(n);
    for (size_t j = 0; j < n; ++j) chunk.Append(events[i + j]);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::vector<Event> ApplyBoundedDisorder(std::vector<Event> events,
                                        size_t max_displacement,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<size_t, Event>> keyed;
  keyed.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    keyed.emplace_back(i + rng.Uniform(0, max_displacement), events[i]);
  }
  // Stable: equal perturbed indices keep arrival order, so the
  // displacement bound is exact.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < keyed.size(); ++i) events[i] = keyed[i].second;
  return events;
}

}  // namespace fw
