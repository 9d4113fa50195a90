#include "agg/aggregate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fw {
namespace {

TEST(Taxonomy, GrayEtAlClasses) {
  EXPECT_EQ(ClassOf(Agg("MIN")), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(Agg("MAX")), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(Agg("SUM")), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(Agg("COUNT")), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(Agg("AVG")), AggClass::kAlgebraic);
  EXPECT_EQ(ClassOf(Agg("STDEV")), AggClass::kAlgebraic);
  EXPECT_EQ(ClassOf(Agg("VARIANCE")), AggClass::kAlgebraic);
  EXPECT_EQ(ClassOf(Agg("RANGE")), AggClass::kAlgebraic);
  EXPECT_EQ(ClassOf(Agg("MEDIAN")), AggClass::kHolistic);
}

TEST(Taxonomy, OverlapSafety) {
  // Theorem 6: MIN and MAX tolerate overlapping partitions; RANGE does
  // too because its state is a (min, max) pair (footnote-2 extension).
  EXPECT_TRUE(SupportsOverlappingMerge(Agg("MIN")));
  EXPECT_TRUE(SupportsOverlappingMerge(Agg("MAX")));
  EXPECT_TRUE(SupportsOverlappingMerge(Agg("RANGE")));
  EXPECT_FALSE(SupportsOverlappingMerge(Agg("SUM")));
  EXPECT_FALSE(SupportsOverlappingMerge(Agg("COUNT")));
  EXPECT_FALSE(SupportsOverlappingMerge(Agg("AVG")));
  EXPECT_FALSE(SupportsOverlappingMerge(Agg("STDEV")));
  EXPECT_FALSE(SupportsOverlappingMerge(Agg("VARIANCE")));
}

TEST(Taxonomy, Sharing) {
  EXPECT_TRUE(SupportsSharing(Agg("MIN")));
  EXPECT_TRUE(SupportsSharing(Agg("AVG")));
  EXPECT_FALSE(SupportsSharing(Agg("MEDIAN")));
}

TEST(Taxonomy, SemanticsSelection) {
  // Paper footnote 2.
  EXPECT_EQ(SemanticsFor(Agg("MIN")).value(),
            CoverageSemantics::kCoveredBy);
  EXPECT_EQ(SemanticsFor(Agg("MAX")).value(),
            CoverageSemantics::kCoveredBy);
  EXPECT_EQ(SemanticsFor(Agg("SUM")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("COUNT")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("AVG")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("STDEV")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("VARIANCE")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("RANGE")).value(),
            CoverageSemantics::kCoveredBy);
  EXPECT_EQ(SemanticsFor(Agg("MEDIAN")).status().code(),
            StatusCode::kUnimplemented);
}

TEST(Names, Strings) {
  EXPECT_STREQ(Agg("MIN")->name.c_str(), "MIN");
  EXPECT_STREQ(Agg("STDEV")->name.c_str(), "STDEV");
  EXPECT_STREQ(AggClassToString(AggClass::kAlgebraic), "algebraic");
  EXPECT_STREQ(AggClassToString(AggClass::kHolistic), "holistic");
}

TEST(Accumulate, Min) {
  AggState s = AggState{};
  EXPECT_TRUE(s.empty());
  AggAccumulate(Agg("MIN"), &s, 5.0);
  AggAccumulate(Agg("MIN"), &s, 3.0);
  AggAccumulate(Agg("MIN"), &s, 7.0);
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("MIN"), s), 3.0);
}

TEST(Accumulate, Max) {
  AggState s = AggState{};
  AggAccumulate(Agg("MAX"), &s, -5.0);
  AggAccumulate(Agg("MAX"), &s, -3.0);
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("MAX"), s), -3.0);
}

TEST(Accumulate, SumCountAvg) {
  AggState sum = AggState{};
  AggState cnt = AggState{};
  AggState avg = AggState{};
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    AggAccumulate(Agg("SUM"), &sum, v);
    AggAccumulate(Agg("COUNT"), &cnt, v);
    AggAccumulate(Agg("AVG"), &avg, v);
  }
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("SUM"), sum), 10.0);
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("COUNT"), cnt), 4.0);
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("AVG"), avg), 2.5);
}

TEST(Accumulate, Stdev) {
  AggState s = AggState{};
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    AggAccumulate(Agg("STDEV"), &s, v);
  }
  EXPECT_NEAR(AggFinalize(Agg("STDEV"), s), 2.0, 1e-12);
}

TEST(Accumulate, Variance) {
  AggState s = AggState{};
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    AggAccumulate(Agg("VARIANCE"), &s, v);
  }
  EXPECT_NEAR(AggFinalize(Agg("VARIANCE"), s), 4.0, 1e-12);
}

TEST(Accumulate, StdevCatastrophicCancellationClampsAtZero) {
  // Sum-of-squares variance of near-constant large-magnitude inputs can
  // come out (slightly) negative in floating point; unclamped, sqrt would
  // return NaN. The finalizers clamp at 0.
  for (AggFn fn : {Agg("STDEV"), Agg("VARIANCE")}) {
    AggState s;
    for (int i = 0; i < 1000; ++i) {
      // Alternate the last-bit neighborhood of 1e8 so the true variance is
      // tiny but nonzero — the worst case for the cancellation.
      AggAccumulate(fn, &s, 1e8 + (i % 2 == 0 ? 1e-4 : -1e-4));
    }
    const double result = AggFinalize(fn, s);
    EXPECT_FALSE(std::isnan(result)) << fn->name;
    EXPECT_GE(result, 0.0) << fn->name;
  }
  // Exactly constant input: variance and stdev are 0, never NaN.
  for (AggFn fn : {Agg("STDEV"), Agg("VARIANCE")}) {
    AggState s;
    for (int i = 0; i < 100; ++i) AggAccumulate(fn, &s, 123456789.0);
    const double result = AggFinalize(fn, s);
    EXPECT_FALSE(std::isnan(result)) << fn->name;
    EXPECT_DOUBLE_EQ(result, 0.0) << fn->name;
  }
}

TEST(Accumulate, Range) {
  AggState s = AggState{};
  for (double v : {5.0, -2.0, 3.0, 11.0}) {
    AggAccumulate(Agg("RANGE"), &s, v);
  }
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("RANGE"), s), 13.0);
}

TEST(Merge, RangeOverlapSafe) {
  // RANGE over overlapping chunks equals the direct evaluation, since the
  // (min, max) pair is insensitive to duplicates.
  std::vector<double> all = {4.0, 8.0, 1.0, 6.0, 3.0};
  auto chunk = [&](size_t lo, size_t hi) {
    AggState s = AggState{};
    for (size_t i = lo; i < hi; ++i) {
      AggAccumulate(Agg("RANGE"), &s, all[i]);
    }
    return s;
  };
  AggState merged = AggState{};
  AggMerge(Agg("RANGE"), &merged, chunk(0, 3));
  AggMerge(Agg("RANGE"), &merged, chunk(2, 5));  // Overlap at index 2.
  EXPECT_DOUBLE_EQ(AggFinalize(Agg("RANGE"), merged), 7.0);  // 8 - 1.
}

TEST(Merge, DisjointPartitionsMatchDirect) {
  // Theorem 5: distributive/algebraic functions compose over disjoint
  // partitions.
  Rng rng(123);
  std::vector<double> all;
  for (int i = 0; i < 100; ++i) all.push_back(rng.UniformReal(-50, 50));
  for (AggFn kind : {Agg("MIN"), Agg("MAX"), Agg("SUM"),
                       Agg("COUNT"), Agg("AVG"), Agg("STDEV"),
                       Agg("VARIANCE"), Agg("RANGE")}) {
    AggState direct = AggState{};
    for (double v : all) AggAccumulate(kind, &direct, v);
    // Three disjoint chunks merged.
    AggState merged = AggState{};
    for (size_t lo : {0u, 33u, 71u}) {
      size_t hi = lo == 0 ? 33 : (lo == 33 ? 71 : 100);
      AggState part = AggState{};
      for (size_t i = lo; i < hi; ++i) AggAccumulate(kind, &part, all[i]);
      AggMerge(kind, &merged, part);
    }
    EXPECT_NEAR(AggFinalize(kind, merged), AggFinalize(kind, direct), 1e-9)
        << kind->name;
  }
}

TEST(Merge, OverlappingPartitionsSafeForMinMax) {
  // Theorem 6: MIN/MAX stay correct under overlapping partitions; SUM and
  // friends do not (double counting), which is why they require
  // "partitioned by".
  std::vector<double> all = {4.0, 8.0, 1.0, 6.0, 3.0};
  auto chunk = [&](AggFn kind, size_t lo, size_t hi) {
    AggState s = AggState{};
    for (size_t i = lo; i < hi; ++i) AggAccumulate(kind, &s, all[i]);
    return s;
  };
  for (AggFn kind : {Agg("MIN"), Agg("MAX")}) {
    AggState direct = AggState{};
    for (double v : all) AggAccumulate(kind, &direct, v);
    AggState merged = AggState{};
    AggMerge(kind, &merged, chunk(kind, 0, 3));
    AggMerge(kind, &merged, chunk(kind, 2, 5));  // Overlaps element 2.
    EXPECT_DOUBLE_EQ(AggFinalize(kind, merged), AggFinalize(kind, direct));
  }
  // SUM over the same overlapping chunks double-counts.
  AggState sum = AggState{};
  AggMerge(Agg("SUM"), &sum, chunk(Agg("SUM"), 0, 3));
  AggMerge(Agg("SUM"), &sum, chunk(Agg("SUM"), 2, 5));
  EXPECT_NE(AggFinalize(Agg("SUM"), sum), 22.0);
}

TEST(Merge, EmptyStateIsIdentity) {
  for (AggFn kind : {Agg("MIN"), Agg("MAX"), Agg("SUM"),
                       Agg("COUNT"), Agg("AVG"), Agg("STDEV"),
                       Agg("VARIANCE"), Agg("RANGE")}) {
    AggState s = AggState{};
    AggAccumulate(kind, &s, 5.0);
    AggState merged = AggState{};
    AggMerge(kind, &merged, s);
    AggMerge(kind, &merged, AggState{});
    EXPECT_DOUBLE_EQ(AggFinalize(kind, merged), AggFinalize(kind, s));
  }
}

TEST(FinalizeDeathTest, EmptyStateAborts) {
  AggState empty = AggState{};
  EXPECT_DEATH(AggFinalize(Agg("MIN"), empty), "empty");
}

TEST(Holistic, MedianOddAndEven) {
  HolisticState odd;
  for (double v : {5.0, 1.0, 3.0}) odd.Add(v);
  EXPECT_DOUBLE_EQ(HolisticFinalize(Agg("MEDIAN"), &odd), 3.0);
  HolisticState even;
  for (double v : {4.0, 1.0, 3.0, 2.0}) even.Add(v);
  // Lower median convention.
  EXPECT_DOUBLE_EQ(HolisticFinalize(Agg("MEDIAN"), &even), 2.0);
}

TEST(Holistic, SingleValue) {
  HolisticState s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(HolisticFinalize(Agg("MEDIAN"), &s), 42.0);
}

TEST(Reference, MatchesManual) {
  std::vector<double> vals = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(AggReference(Agg("MIN"), vals).value(), 1.0);
  EXPECT_DOUBLE_EQ(AggReference(Agg("MAX"), vals).value(), 5.0);
  EXPECT_DOUBLE_EQ(AggReference(Agg("SUM"), vals).value(), 14.0);
  EXPECT_DOUBLE_EQ(AggReference(Agg("COUNT"), vals).value(), 5.0);
  EXPECT_DOUBLE_EQ(AggReference(Agg("AVG"), vals).value(), 2.8);
  EXPECT_DOUBLE_EQ(AggReference(Agg("MEDIAN"), vals).value(), 3.0);
  EXPECT_FALSE(AggReference(Agg("MIN"), {}).ok());
}

// --- The merge_batch contract ----------------------------------------------

// The values a kernel must carry bit for bit: NaN, both zeros (MIN/MAX
// ties), both infinities, and two ordinary values.
const double kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                            0.0,
                            -0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            1.5,
                            -2.25};

// State seeds: empty (n == 0), each special alone, and pairs whose fold
// order decides the result.
std::vector<std::vector<double>> SeedValueLists() {
  const double nan = kSpecials[0];
  const double inf = kSpecials[3];
  std::vector<std::vector<double>> lists = {{}};
  for (double v : kSpecials) lists.push_back({v});
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {nan, 1.5}, {0.0, -0.0}, {inf, -inf}, {1.5, -2.25}}) {
    lists.push_back({a, b});
    lists.push_back({b, a});
  }
  return lists;
}

AggState FoldAll(void (*accumulate)(AggState*, double),
                 const std::vector<double>& values) {
  AggState s;
  for (double v : values) accumulate(&s, v);
  return s;
}

void ExpectBitwiseEqual(const AggState& got, const AggState& want,
                        const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.v1), std::bit_cast<uint64_t>(want.v1))
      << where << ": v1 " << got.v1 << " vs " << want.v1;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.v2), std::bit_cast<uint64_t>(want.v2))
      << where << ": v2 " << got.v2 << " vs " << want.v2;
  EXPECT_EQ(got.n, want.n) << where;
  ASSERT_EQ(got.ext_size(), want.ext_size()) << where;
  if (got.ext_size() > 0) {
    EXPECT_EQ(std::memcmp(got.ext(), want.ext(), got.ext_size()), 0) << where;
  }
}

// Every target seed against every source seed, one key per pair, and a
// key list that visits each key once in order and then again scrambled,
// with runs of the same key — so repeated keys must fold in list order.
struct MergeCase {
  std::vector<AggState> targets;
  std::vector<AggState> sources;
  std::vector<uint32_t> keys;
};

MergeCase BuildMergeCase(void (*accumulate)(AggState*, double)) {
  const std::vector<std::vector<double>> seeds = SeedValueLists();
  MergeCase c;
  for (const auto& target : seeds) {
    for (const auto& source : seeds) {
      c.targets.push_back(FoldAll(accumulate, target));
      c.sources.push_back(FoldAll(accumulate, source));
    }
  }
  const uint32_t n = static_cast<uint32_t>(c.targets.size());
  for (uint32_t k = 0; k < n; ++k) c.keys.push_back(k);
  Rng rng(7);
  for (uint32_t i = 0; i < n; ++i) {
    const auto k = static_cast<uint32_t>(rng.Uniform(0, n - 1));
    c.keys.push_back(k);
    if (i % 5 == 0) c.keys.push_back(k);
  }
  return c;
}

TEST(MergeBatch, KernelsDeclaredWhereShipped) {
  for (const char* name : {"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV",
                           "VARIANCE", "RANGE", "FIRST", "LAST"}) {
    EXPECT_NE(Agg(name)->merge_batch, nullptr) << name;
  }
  // The sketches keep the engine's fallback loop exercised.
  EXPECT_EQ(Agg("P99")->merge_batch, nullptr);
  EXPECT_EQ(Agg("DISTINCT_COUNT")->merge_batch, nullptr);
  EXPECT_EQ(Agg("MEDIAN")->merge_batch, nullptr);
}

TEST(MergeBatch, BitwiseEqualToPerKeyMergeForEveryFunction) {
  for (AggFn fn : AggregateRegistry::Global().List()) {
    if (fn->agg_class == AggClass::kHolistic) continue;
    SCOPED_TRACE(fn->name);
    const MergeCase c = BuildMergeCase(fn->accumulate);
    std::vector<AggState> want = c.targets;
    for (uint32_t key : c.keys) fn->merge(&want[key], c.sources[key]);
    std::vector<AggState> got = c.targets;
    AggMergeBatch(fn, got.data(), c.sources.data(), c.keys.data(),
                  c.keys.size());
    for (size_t k = 0; k < got.size(); ++k) {
      ExpectBitwiseEqual(got[k], want[k], "key " + std::to_string(k));
    }
  }
}

// The branch-free MIN/MAX/RANGE against the `if` form they replaced: same
// comparison direction, so NaN and +0/-0 results keep their bits. A `<=`
// in MIN's select flips the (+0, -0) ties and fails here.
void RefMinAccumulate(AggState* s, double v) {
  if (s->n == 0 || v < s->v1) s->v1 = v;
  ++s->n;
}
void RefMinMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  if (s->n == 0 || o.v1 < s->v1) s->v1 = o.v1;
  s->n += o.n;
}
void RefMaxAccumulate(AggState* s, double v) {
  if (s->n == 0 || v > s->v1) s->v1 = v;
  ++s->n;
}
void RefMaxMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  if (s->n == 0 || o.v1 > s->v1) s->v1 = o.v1;
  s->n += o.n;
}
void RefRangeAccumulate(AggState* s, double v) {
  if (s->n == 0) {
    s->v1 = v;
    s->v2 = v;
  } else {
    if (v < s->v1) s->v1 = v;
    if (v > s->v2) s->v2 = v;
  }
  ++s->n;
}
void RefRangeMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  if (s->n == 0) {
    s->v1 = o.v1;
    s->v2 = o.v2;
  } else {
    if (o.v1 < s->v1) s->v1 = o.v1;
    if (o.v2 > s->v2) s->v2 = o.v2;
  }
  s->n += o.n;
}

struct ExtremumReference {
  const char* name;
  void (*accumulate)(AggState*, double);
  void (*merge)(AggState*, const AggState&);
};

TEST(MergeBatch, BranchFreeExtremaMatchTheIfForm) {
  for (const ExtremumReference& ref :
       {ExtremumReference{"MIN", RefMinAccumulate, RefMinMerge},
        ExtremumReference{"MAX", RefMaxAccumulate, RefMaxMerge},
        ExtremumReference{"RANGE", RefRangeAccumulate, RefRangeMerge}}) {
    SCOPED_TRACE(ref.name);
    AggFn fn = Agg(ref.name);
    // accumulate: every ordered triple of specials.
    for (double a : kSpecials) {
      for (double b : kSpecials) {
        for (double c : kSpecials) {
          ExpectBitwiseEqual(FoldAll(fn->accumulate, {a, b, c}),
                             FoldAll(ref.accumulate, {a, b, c}),
                             "accumulate " + std::to_string(a) + ", " +
                                 std::to_string(b) + ", " +
                                 std::to_string(c));
        }
      }
    }
    // merge and merge_batch: every seed pair, states built the `if` way.
    const MergeCase c = BuildMergeCase(ref.accumulate);
    std::vector<AggState> want = c.targets;
    std::vector<AggState> scalar = c.targets;
    for (uint32_t key : c.keys) {
      ref.merge(&want[key], c.sources[key]);
      fn->merge(&scalar[key], c.sources[key]);
    }
    std::vector<AggState> batch = c.targets;
    fn->merge_batch(batch.data(), c.sources.data(), c.keys.data(),
                    c.keys.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ExpectBitwiseEqual(scalar[k], want[k], "merge key " + std::to_string(k));
      ExpectBitwiseEqual(batch[k], want[k],
                         "merge_batch key " + std::to_string(k));
    }
  }
}

// Property: merging a random binary split equals direct evaluation for
// every shareable aggregate.
class SplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(SplitSweep, RandomSplitsCompose) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> values;
  int n = 1 + static_cast<int>(rng.Uniform(1, 200));
  for (int i = 0; i < n; ++i) values.push_back(rng.UniformReal(-10, 10));
  size_t split = rng.Uniform(0, values.size());
  for (AggFn kind : {Agg("MIN"), Agg("MAX"), Agg("SUM"),
                       Agg("COUNT"), Agg("AVG"), Agg("STDEV"),
                       Agg("VARIANCE"), Agg("RANGE")}) {
    AggState left = AggState{};
    AggState right = AggState{};
    for (size_t i = 0; i < split; ++i) AggAccumulate(kind, &left, values[i]);
    for (size_t i = split; i < values.size(); ++i) {
      AggAccumulate(kind, &right, values[i]);
    }
    AggState merged = AggState{};
    AggMerge(kind, &merged, left);
    AggMerge(kind, &merged, right);
    EXPECT_NEAR(AggFinalize(kind, merged),
                AggReference(kind, values).value(), 1e-9)
        << kind->name << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSweep, ::testing::Range(1, 21));

}  // namespace
}  // namespace fw
