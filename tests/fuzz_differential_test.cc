// Randomized differential fuzzing of the whole serving surface: a seeded
// generator drives random query sets x random churn (AddQuery/RemoveQuery,
// each a re-optimizing replan) x bounded disorder (with genuinely late
// events) x a random schedule of Resize calls, and asserts that the
// subject session's output — results, late side-output, and cumulative
// stats — is bitwise identical to the single-shard inline oracle running
// the same stream and churn schedule without any resizes.
//
// A small fixed-seed subset runs in tier-1 (and under the ASan/UBSan and
// TSan CI legs via the `fuzz`/`threaded` labels). Scale the search from
// the environment:
//
//   FW_FUZZ_SEEDS=500 ./fuzz_differential_test
//       --gtest_filter=FuzzDifferential.LongRandomized
//
// Every failure prints a one-line reproduction:
//
//   FW_FUZZ_SEED=<seed> ./fuzz_differential_test
//       --gtest_filter=FuzzDifferential.ReproSeed

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

using SessionResults =
    std::map<std::tuple<int, int, TimeT, TimeT, uint32_t>, double>;

// --- Case generation -------------------------------------------------------

struct FuzzOp {
  enum Kind { kAdd, kRemove, kResize };
  size_t at_event = 0;
  Kind kind = kAdd;
  StreamQuery query;    // kAdd.
  size_t remove_slot = 0;  // kRemove: index into the live list.
  uint32_t shards = 1;  // kResize.
};

struct FuzzCase {
  uint32_t num_keys = 1;
  TimeT max_delay = 0;
  uint32_t initial_shards = 1;
  StreamQuery initial_query;
  std::vector<Event> events;
  std::vector<FuzzOp> ops;  // Sorted by at_event.
};

// All queries of a session share one aggregate and grouping; windows are
// drawn from a palette whose ranges keep hyper-periods (and thus plan
// sizes) small.
StreamQuery RandomQuery(Rng& rng, AggFn agg, bool per_key) {
  static constexpr TimeT kRanges[] = {10, 20, 30, 40, 60, 80, 120};
  StreamQuery query;
  query.source = "fuzz";
  query.agg = agg;
  query.per_key = per_key;
  if (per_key) query.key_column = "k";
  const size_t num_windows = rng.Uniform(1, 3);
  while (query.windows.size() < num_windows) {
    const TimeT range =
        kRanges[rng.Uniform(0, std::size(kRanges) - 1)];
    TimeT slide = range;
    const uint64_t shape = rng.Uniform(0, 2);
    if (shape == 1 && range % 2 == 0) slide = range / 2;
    if (shape == 2 && range % 4 == 0) slide = range / 4;
    // Duplicate windows within one query are rejected by Add; just skip.
    Status status = query.windows.Add(Window(range, slide));
    (void)status;
  }
  return query;
}

FuzzCase GenerateCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase c;
  static constexpr uint32_t kKeyChoices[] = {1, 4, 8, 16};
  c.num_keys = kKeyChoices[rng.Uniform(0, std::size(kKeyChoices) - 1)];
  static constexpr TimeT kDelayChoices[] = {0, 0, 16, 48};
  c.max_delay = kDelayChoices[rng.Uniform(0, std::size(kDelayChoices) - 1)];
  c.initial_shards = static_cast<uint32_t>(rng.Uniform(1, 4));

  // Sample across the registry's taxonomy spread: idempotent extrema
  // ("covered by"), additive moments ("partitioned by"), order-sensitive
  // FIRST/LAST, and both sketch-state UDAFs — so churn x disorder x resize
  // schedules exercise every state shape's handoff, including the
  // out-of-line sketch payloads, against the 1-shard oracle.
  static const char* const kAggPalette[] = {
      "MIN",  "MAX",  "SUM", "AVG", "STDEV",
      "FIRST", "LAST", "P99", "P99", "DISTINCT_COUNT", "DISTINCT_COUNT"};
  const AggFn agg =
      Agg(kAggPalette[rng.Uniform(0, std::size(kAggPalette) - 1)]);
  const bool per_key = c.num_keys > 1;
  c.initial_query = RandomQuery(rng, agg, per_key);

  const size_t num_events = rng.Uniform(2000, 5000);
  c.events = GenerateSyntheticStream(num_events, c.num_keys,
                                     seed ^ 0x9E3779B97F4A7C15ull);
  if (c.max_delay > 0) {
    // Displacement up to 1.5x the tolerance: most events reorder within
    // the bound, a tail goes genuinely late — both paths must stay
    // shard-count and resize invariant.
    const size_t displacement =
        rng.Uniform(1, static_cast<uint64_t>(c.max_delay) * 3 / 2);
    c.events = ApplyBoundedDisorder(c.events, displacement,
                                    seed ^ 0xC0FFEEull);
  }

  // Random op schedule at distinct interior indices. Draw the indices
  // first, then assign kinds walking them in *stream order*, tracking the
  // prospective live-query count so a remove never empties the session
  // (an idle session restarts its event-time clock, which is covered
  // elsewhere; here every event should count).
  const size_t num_ops = rng.Uniform(2, 8);
  std::set<size_t> indices;
  for (size_t i = 0; i < num_ops; ++i) {
    indices.insert(rng.Uniform(1, c.events.size() - 1));
  }
  size_t live = 1;
  for (size_t at : indices) {
    FuzzOp op;
    op.at_event = at;
    const uint64_t dice = rng.Uniform(0, 99);
    if (dice < 35) {
      op.kind = FuzzOp::kResize;
      op.shards = static_cast<uint32_t>(rng.Uniform(1, 6));
    } else if (dice < 60 && live > 1) {
      op.kind = FuzzOp::kRemove;
      op.remove_slot = rng.Uniform(0, 1u << 16);  // Taken mod live size.
      --live;
    } else if (live < 5) {
      op.kind = FuzzOp::kAdd;
      op.query = RandomQuery(rng, agg, per_key);
      ++live;
    } else {
      continue;
    }
    c.ops.push_back(std::move(op));
  }
  return c;
}

// --- Differential execution ------------------------------------------------

struct RunOutput {
  SessionResults results;
  std::vector<Event> late;
  StreamSession::SessionStats stats;
};

// EXPECT_EQ on result maps, but on mismatch print only the differing
// entries — gtest truncates whole-map dumps past a few dozen windows,
// usually hiding the actual divergence.
void ExpectSameResults(const SessionResults& got,
                       const SessionResults& want) {
  if (got == want) return;
  ADD_FAILURE() << "result maps differ (got " << got.size()
                << " entries, want " << want.size() << ")";
  auto print = [](const char* kind, const SessionResults::value_type& kv) {
    ADD_FAILURE() << kind << " (tag " << std::get<0>(kv.first) << ", op "
                  << std::get<1>(kv.first) << ", [" << std::get<2>(kv.first)
                  << ", " << std::get<3>(kv.first) << "), key "
                  << std::get<4>(kv.first) << ") = " << kv.second;
  };
  for (const auto& kv : want) {
    auto it = got.find(kv.first);
    if (it == got.end()) {
      print("missing", kv);
    } else if (it->second != kv.second) {
      print("want", kv);
      print("got", *it);
    }
  }
  for (const auto& kv : got) {
    if (want.find(kv.first) == want.end()) print("extra", kv);
  }
}

// Applies the case's stream and churn schedule; Resize ops run only when
// `apply_resizes` (the oracle ignores them and stays at `shards`). Query
// callbacks tag results by creation order, which both runs share. With
// `columnar_seed` != 0 the run ingests through PushColumns in
// randomly-sized batches (1..64 events, drawn from that seed), flushing
// the pending batch before any churn/resize op so ops still fire at
// their exact event indices — the oracle stays per-event, so every
// differential check below also pins columnar ≡ scalar ingestion.
void RunCase(const FuzzCase& c, uint32_t shards, bool apply_resizes,
             uint64_t columnar_seed, bool adaptive, RunOutput* out_ptr) {
  StreamSession::Options options;
  options.num_keys = c.num_keys;
  options.num_shards = shards;
  options.max_delay = c.max_delay;
  if (adaptive) {
    // The full feedback loop, tuned twitchy so it actually fires within
    // a few-thousand-event case: rate-driven auto-resize with the
    // occupancy terms neutralized (decisions replay deterministically
    // from event time), plus drift replans at a low threshold.
    options.auto_resize.enabled = true;
    options.auto_resize.min_shards = 1;
    options.auto_resize.max_shards = 4;
    options.monitor_interval = 384;
    options.auto_resize.scale_up_occupancy = 2.0;
    options.auto_resize.scale_down_occupancy = 1.0;
    options.auto_resize.scale_down_checks = 2;
    options.auto_resize.target_rate_per_shard = 0.5;
    options.adaptive.enabled = true;
    options.adaptive.rate_alpha = 0.5;
    options.adaptive.reoptimize_ratio = 1.5;
    options.adaptive.min_events_between_replans = 1024;
  }
  RunOutput& out = *out_ptr;
  if (c.max_delay > 0) {
    options.late_policy = StreamSession::LatePolicy::kSideOutput;
    options.late_callback = [&out](const Event& e) {
      out.late.push_back(e);
    };
  }
  StreamSession session(options);

  int next_tag = 0;
  std::vector<QueryId> live;
  auto add = [&](const StreamQuery& query) {
    const int tag = next_tag++;
    SessionResults* results = &out.results;
    Result<QueryId> id = session.AddQuery(
        query, [results, tag](const WindowResult& r) {
          (*results)[{tag, r.operator_id, r.start, r.end, r.key}] = r.value;
        });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    live.push_back(*id);
  };
  add(c.initial_query);

  Rng batch_rng(columnar_seed);
  EventColumns pending;
  size_t batch_target = 0;
  auto flush = [&] {
    if (pending.empty()) return;
    Status status = session.PushColumns(pending);
    ASSERT_TRUE(status.ok()) << status.ToString();
    pending.clear();
  };

  size_t next_op = 0;
  for (size_t i = 0; i < c.events.size(); ++i) {
    if (next_op < c.ops.size() && c.ops[next_op].at_event == i) {
      ASSERT_NO_FATAL_FAILURE(flush());
    }
    while (next_op < c.ops.size() && c.ops[next_op].at_event == i) {
      const FuzzOp& op = c.ops[next_op++];
      switch (op.kind) {
        case FuzzOp::kAdd:
          add(op.query);
          break;
        case FuzzOp::kRemove: {
          ASSERT_GT(live.size(), 1u);
          const size_t slot = op.remove_slot % live.size();
          ASSERT_TRUE(session.RemoveQuery(live[slot]).ok());
          live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
          break;
        }
        case FuzzOp::kResize:
          if (apply_resizes) {
            ASSERT_TRUE(session.Resize(op.shards).ok());
          }
          break;
      }
    }
    if (columnar_seed != 0) {
      if (pending.empty()) batch_target = batch_rng.Uniform(1, 64);
      pending.Append(c.events[i]);
      if (pending.size() >= batch_target) {
        ASSERT_NO_FATAL_FAILURE(flush());
      }
    } else {
      Status status = session.Push(c.events[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  ASSERT_NO_FATAL_FAILURE(flush());
  ASSERT_TRUE(session.Finish().ok());
  out.stats = session.Stats();
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
               " — repro: FW_FUZZ_SEED=" + std::to_string(seed) +
               " ./fuzz_differential_test"
               " --gtest_filter=FuzzDifferential.ReproSeed");
  const FuzzCase c = GenerateCase(seed);

  RunOutput oracle;
  ASSERT_NO_FATAL_FAILURE(RunCase(c, 1, /*apply_resizes=*/false,
                                  /*columnar_seed=*/0, /*adaptive=*/false,
                                  &oracle));
  ASSERT_FALSE(oracle.results.empty());

  // The subject ingests columnar in randomly-sized batches (vs the
  // oracle's per-event Push), so shard count, resize schedule, AND
  // ingestion path all differ from the oracle at once.
  RunOutput subject;
  ASSERT_NO_FATAL_FAILURE(RunCase(c, c.initial_shards, /*apply_resizes=*/true,
                                  /*columnar_seed=*/seed * 2 + 1,
                                  /*adaptive=*/false, &subject));

  // Bitwise-identical results (exact double equality through the map),
  // identical late side-output in arrival order, identical cumulative
  // stats.
  ExpectSameResults(subject.results, oracle.results);
  ASSERT_EQ(subject.late.size(), oracle.late.size());
  for (size_t i = 0; i < subject.late.size(); ++i) {
    EXPECT_EQ(subject.late[i].timestamp, oracle.late[i].timestamp);
    EXPECT_EQ(subject.late[i].key, oracle.late[i].key);
    EXPECT_EQ(subject.late[i].value, oracle.late[i].value);
  }
  EXPECT_EQ(subject.stats.late_events, oracle.stats.late_events);
  EXPECT_EQ(subject.stats.lifetime_ops, oracle.stats.lifetime_ops);
  EXPECT_EQ(subject.stats.events_pushed, oracle.stats.events_pushed);
  EXPECT_EQ(subject.stats.replans, oracle.stats.replans);
}

// --- Adaptive-mode differential --------------------------------------------

// Stretches the middle third of the stream's time span by 8x: the
// observed rate η̂ drops to ~1/8 of the generator's pace there and
// recovers after, so an adaptive subject crosses the drift threshold
// (and the rate-driven resize signal swings both ways) mid-case. The
// map is monotone in the timestamp, so disorder order relations are
// preserved — time displacements grow in the stretched region, but
// identically for subject and oracle, and the oracle defines truth.
void StretchMiddleThird(std::vector<Event>* events) {
  TimeT lo = std::numeric_limits<TimeT>::max();
  TimeT hi = std::numeric_limits<TimeT>::min();
  for (const Event& e : *events) {
    lo = std::min(lo, e.timestamp);
    hi = std::max(hi, e.timestamp);
  }
  if (hi <= lo) return;
  const TimeT b1 = lo + (hi - lo) / 3;
  const TimeT b2 = lo + 2 * (hi - lo) / 3;
  for (Event& e : *events) {
    if (e.timestamp <= b1) continue;
    const TimeT in_mid = std::min(e.timestamp, b2) - b1;
    const TimeT past = e.timestamp > b2 ? e.timestamp - b2 : 0;
    e.timestamp = b1 + in_mid * 8 + past;
  }
}

// Same oracle discipline as RunSeed, but the subject additionally runs
// the runtime feedback loop — the throughput resize signal (down to
// inline mode and back) and drift-triggered replans — over a stream
// whose rate genuinely drifts. AddQuery/RemoveQuery ops are excluded:
// once a drift replan adopts the observed η, a later churn replan
// optimizes at that η and may legitimately pick a different plan
// structure than the static-η oracle's. The invariant adaptivity owes
// is identical *output*, which is exactly what stays compared;
// lifetime_ops is skipped for the same reason (plan structure and
// crossover double-processing change the work, never the results).
void RunAdaptiveSeed(uint64_t seed) {
  SCOPED_TRACE("adaptive fuzz seed " + std::to_string(seed) +
               " — repro: FW_FUZZ_ADAPTIVE_SEED=" + std::to_string(seed) +
               " ./fuzz_differential_test"
               " --gtest_filter=FuzzDifferential.AdaptiveReproSeed");
  FuzzCase c = GenerateCase(seed);
  std::vector<FuzzOp> resizes_only;
  for (const FuzzOp& op : c.ops) {
    if (op.kind == FuzzOp::kResize) resizes_only.push_back(op);
  }
  c.ops = std::move(resizes_only);
  StretchMiddleThird(&c.events);

  // Structural drift replans regroup the floating-point accumulation
  // itself — a factor-window plan merges per-slice partials where the
  // evicted plan folds raw events one at a time — so for
  // rounding-sensitive aggregates (SUM/AVG/STDEV over arbitrary
  // doubles, sketch merges) the replanned pipeline is mathematically
  // but not bitwise equal to the static oracle. That ULP drift is
  // inherent to changing the plan, not an adaptivity bug; their
  // state-handoff exactness is pinned by the non-adaptive differential
  // above. Here the point is the crossover/monitor machinery, so draw
  // from the regroup-exact aggregates: idempotent extrema, event
  // selection, and exact set cardinality.
  static const char* const kExactPalette[] = {"MIN", "MAX", "FIRST", "LAST",
                                              "DISTINCT_COUNT"};
  c.initial_query.agg =
      Agg(kExactPalette[seed % std::size(kExactPalette)]);

  RunOutput oracle;
  ASSERT_NO_FATAL_FAILURE(RunCase(c, 1, /*apply_resizes=*/false,
                                  /*columnar_seed=*/0, /*adaptive=*/false,
                                  &oracle));
  ASSERT_FALSE(oracle.results.empty());

  // Manual resizes, auto-resizes, drift replans, and columnar batching
  // all differ from the oracle at once.
  RunOutput subject;
  ASSERT_NO_FATAL_FAILURE(RunCase(c, c.initial_shards, /*apply_resizes=*/true,
                                  /*columnar_seed=*/seed * 2 + 1,
                                  /*adaptive=*/true, &subject));

  ExpectSameResults(subject.results, oracle.results);
  ASSERT_EQ(subject.late.size(), oracle.late.size());
  for (size_t i = 0; i < subject.late.size(); ++i) {
    EXPECT_EQ(subject.late[i].timestamp, oracle.late[i].timestamp);
    EXPECT_EQ(subject.late[i].key, oracle.late[i].key);
    EXPECT_EQ(subject.late[i].value, oracle.late[i].value);
  }
  EXPECT_EQ(subject.stats.late_events, oracle.stats.late_events);
  EXPECT_EQ(subject.stats.events_pushed, oracle.stats.events_pushed);
  EXPECT_EQ(subject.stats.replans, oracle.stats.replans);
}

// --- Entry points ----------------------------------------------------------

// Always-on subset: fixed seeds, small cases, a few seconds even under
// TSan. Seeds are arbitrary but frozen — a regression here is a real
// behavioral change, reproducible forever.
TEST(FuzzDifferential, FixedSeedsTier1) {
  for (uint64_t seed : {1u, 7u, 42u, 1337u, 20260730u, 0xF00Du}) {
    RunSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::fprintf(stderr,
                   "fuzz failure — reproduce with:\n  FW_FUZZ_SEED=%llu "
                   "./fuzz_differential_test "
                   "--gtest_filter=FuzzDifferential.ReproSeed\n",
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

// The adaptive counterpart of FixedSeedsTier1.
TEST(FuzzDifferential, AdaptiveFixedSeedsTier1) {
  for (uint64_t seed : {3u, 11u, 77u, 5150u, 20260808u}) {
    RunAdaptiveSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::fprintf(stderr,
                   "adaptive fuzz failure — reproduce with:\n  "
                   "FW_FUZZ_ADAPTIVE_SEED=%llu ./fuzz_differential_test "
                   "--gtest_filter=FuzzDifferential.AdaptiveReproSeed\n",
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

// One-line reproduction target for any failing seed.
TEST(FuzzDifferential, ReproSeed) {
  const char* env = std::getenv("FW_FUZZ_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set FW_FUZZ_SEED=<seed> to replay one case";
  }
  RunSeed(std::strtoull(env, nullptr, 10));
}

TEST(FuzzDifferential, AdaptiveReproSeed) {
  const char* env = std::getenv("FW_FUZZ_ADAPTIVE_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set FW_FUZZ_ADAPTIVE_SEED=<seed> to replay one case";
  }
  RunAdaptiveSeed(std::strtoull(env, nullptr, 10));
}

// Env-scaled search for CI's nightly-style dispatch job (and local
// soaking). FW_FUZZ_SEEDS counts cases; FW_FUZZ_BASE_SEED (default 1000)
// offsets the range so independent runs explore different seeds.
TEST(FuzzDifferential, LongRandomized) {
  const char* env = std::getenv("FW_FUZZ_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set FW_FUZZ_SEEDS=<count> to run the long search";
  }
  const uint64_t count = std::strtoull(env, nullptr, 10);
  const char* base_env = std::getenv("FW_FUZZ_BASE_SEED");
  const uint64_t base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 1000;
  for (uint64_t seed = base; seed < base + count; ++seed) {
    RunSeed(seed);
    if (!HasFatalFailure() && !HasNonfatalFailure()) {
      RunAdaptiveSeed(seed);
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::fprintf(stderr,
                   "fuzz failure at seed %llu — reproduce with:\n  "
                   "FW_FUZZ_SEED=%llu ./fuzz_differential_test "
                   "--gtest_filter=FuzzDifferential.ReproSeed\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

}  // namespace
}  // namespace fw
