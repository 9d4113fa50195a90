#ifndef FW_WORKLOAD_DATAGEN_H_
#define FW_WORKLOAD_DATAGEN_H_

#include <cstddef>
#include <vector>

#include "exec/columns.h"
#include "exec/event.h"

namespace fw {

/// Synthetic stream matching the paper's Synthetic-1M/10M datasets:
/// events at a constant pace (one per time unit, η = 1), uniformly random
/// values, keys assigned round-robin over [0, num_keys).
std::vector<Event> GenerateSyntheticStream(size_t num_events,
                                           uint32_t num_keys, uint64_t seed);

/// Stand-in for the paper's Real-32M dataset (DEBS 2012 Grand Challenge,
/// "electrical power main-phase 1" sensor, ~32M events). The original
/// trace is not redistributable, so we synthesize a stream with the same
/// execution-relevant properties (see DESIGN.md): monotone timestamps with
/// jittered inter-arrival times (bursts of Δ=0 and gaps of Δ=2/3 around a
/// mean pace of 1), and bounded auto-correlated random-walk values in the
/// 0..500 range typical of the mf01 power readings.
std::vector<Event> GenerateDebsLikeStream(size_t num_events,
                                          uint32_t num_keys, uint64_t seed);

/// Splits a row stream into batch-sized columnar chunks (the last chunk
/// may be short). batch_size 0 means one chunk holding the whole stream.
/// Benches use this to pre-transpose outside the timed region.
std::vector<EventColumns> SplitIntoColumns(const std::vector<Event>& events,
                                           size_t batch_size);

/// Applies bounded disorder to a timestamp-ordered stream: every event
/// lands at most `max_displacement` positions from its ordered index
/// (each event's index is perturbed by a uniform draw in
/// [0, max_displacement], then the stream is stably re-sorted by the
/// perturbed index). With the synthetic η = 1 pacing this bounds the
/// *time* disorder by max_displacement too, so a bounded-lateness
/// pipeline with max_delay >= max_displacement drops nothing; for
/// bursty/gapped streams the time bound is max_displacement times the
/// largest inter-arrival gap. Models disordered real traces and
/// per-shard skewed arrival.
std::vector<Event> ApplyBoundedDisorder(std::vector<Event> events,
                                        size_t max_displacement,
                                        uint64_t seed);

/// Deterministic default seeds used by benches/examples so runs are
/// reproducible.
inline constexpr uint64_t kSyntheticSeed = 0x5EEDFACE;
inline constexpr uint64_t kDebsSeed = 0xDEB52012;

}  // namespace fw

#endif  // FW_WORKLOAD_DATAGEN_H_
