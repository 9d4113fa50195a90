// The pluggable aggregate-function API: registry behavior (registration
// validation, duplicate rejection, lookup), the state-serialization
// contract every function must honor, the sketch-backed UDAFs' estimation
// quality and partition invariance, and the end-to-end path of a
// user-defined aggregate through SQL, the builder, the optimizer's
// declared-property sharing decisions, and a live session.

#include "agg/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "agg/sketch.h"
#include "common/rng.h"
#include "factor/optimizer.h"
#include "query/parser.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

// --- Registry behavior -----------------------------------------------------

TEST(Registry, BuiltinsAreRegistered) {
  for (const char* name :
       {"MIN", "MAX", "SUM", "COUNT", "AVG", "STDEV", "VARIANCE", "RANGE",
        "MEDIAN", "FIRST", "LAST", "P99", "DISTINCT_COUNT"}) {
    EXPECT_NE(FindAggregate(name), nullptr) << name;
  }
  EXPECT_EQ(FindAggregate("BOGUS"), nullptr);
}

TEST(Registry, LookupIsCaseInsensitiveAndPointerStable) {
  EXPECT_EQ(FindAggregate("min"), FindAggregate("MIN"));
  EXPECT_EQ(FindAggregate("Distinct_Count"), FindAggregate("DISTINCT_COUNT"));
  // Descriptor addresses are identity: two lookups agree, two functions
  // differ.
  EXPECT_NE(Agg("MIN"), Agg("MAX"));
}

TEST(Registry, DuplicateNameRejected) {
  AggregateFunction dup;
  dup.name = "sum";  // Canonicalizes to SUM, which is taken.
  dup.agg_class = AggClass::kDistributive;
  dup.accumulate = Agg("SUM")->accumulate;
  dup.merge = Agg("SUM")->merge;
  dup.finalize = Agg("SUM")->finalize;
  Result<AggFn> registered = AggregateRegistry::Global().Register(dup);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kAlreadyExists);
}

TEST(Registry, InvalidDescriptorsRejected) {
  AggregateFunction fn;
  fn.name = "NOT VALID";  // Space: not an identifier the parser can read.
  fn.agg_class = AggClass::kDistributive;
  fn.accumulate = Agg("SUM")->accumulate;
  fn.merge = Agg("SUM")->merge;
  fn.finalize = Agg("SUM")->finalize;
  EXPECT_FALSE(AggregateRegistry::Global().Register(fn).ok());

  fn.name = "VALID_NAME";
  fn.finalize = nullptr;  // Missing a required operation.
  EXPECT_FALSE(AggregateRegistry::Global().Register(fn).ok());

  AggregateFunction holistic;
  holistic.name = "HOLISTIC_NO_FINALIZE";
  holistic.agg_class = AggClass::kHolistic;  // Needs holistic_finalize.
  EXPECT_FALSE(AggregateRegistry::Global().Register(holistic).ok());
}

// Holistic functions have neither slice states nor sub-aggregates, so a
// batch kernel on one is a descriptor error, not a silently unused field.
TEST(Registry, HolisticBatchKernelsRejected) {
  AggregateFunction holistic = *Agg("MEDIAN");
  holistic.name = "HOLISTIC_WITH_KERNEL";
  holistic.accumulate_batch = Agg("MIN")->accumulate_batch;
  Result<AggFn> registered = AggregateRegistry::Global().Register(holistic);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registered.status().message(),
            "HOLISTIC_WITH_KERNEL: holistic functions take no "
            "accumulate_batch (no slice states to fold into)");

  holistic.accumulate_batch = nullptr;
  holistic.merge_batch = Agg("MIN")->merge_batch;
  registered = AggregateRegistry::Global().Register(holistic);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registered.status().message(),
            "HOLISTIC_WITH_KERNEL: holistic functions take no merge_batch "
            "(no sub-aggregates to merge)");
  EXPECT_EQ(FindAggregate("HOLISTIC_WITH_KERNEL"), nullptr);
}

TEST(Registry, ListIsSortedAndComplete) {
  std::vector<AggFn> all = AggregateRegistry::Global().List();
  ASSERT_GE(all.size(), 13u);
  std::set<std::string> names;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(all[i - 1]->name, all[i]->name);
    }
    names.insert(all[i]->name);
  }
  EXPECT_TRUE(names.count("P99"));
  EXPECT_TRUE(names.count("MEDIAN"));
}

// --- Declared-property sharing decisions -----------------------------------

TEST(Properties, SemanticsFollowDeclarations) {
  // Overlap-safe merges share under "covered by" (Theorem 6): the classic
  // extrema plus the idempotent HLL union.
  EXPECT_EQ(SemanticsFor(Agg("DISTINCT_COUNT")).value(),
            CoverageSemantics::kCoveredBy);
  // Sketch bins are additive, not idempotent: "partitioned by".
  EXPECT_EQ(SemanticsFor(Agg("P99")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("FIRST")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(SemanticsFor(Agg("LAST")).value(),
            CoverageSemantics::kPartitionedBy);
  EXPECT_EQ(ClassOf(Agg("FIRST")), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(Agg("P99")), AggClass::kAlgebraic);
}

// --- State serialization contract ------------------------------------------

TEST(StateSerialization, RoundTripsForEveryRegisteredFunction) {
  Rng rng(99);
  for (AggFn fn : AggregateRegistry::Global().List()) {
    if (fn->agg_class == AggClass::kHolistic) continue;
    AggState state;
    for (int i = 0; i < 64; ++i) {
      fn->accumulate(&state, rng.UniformReal(-100, 100));
    }
    ASSERT_EQ(state.ext_size(), fn->state_bytes) << fn->name;
    const std::string bytes = fn->SerializeState(state);
    Result<AggState> restored = fn->DeserializeState(bytes);
    ASSERT_TRUE(restored.ok()) << fn->name << ": "
                               << restored.status().ToString();
    // Bitwise round trip: the re-serialization is byte-identical and the
    // finalized value matches exactly.
    EXPECT_EQ(fn->SerializeState(*restored), bytes) << fn->name;
    EXPECT_EQ(fn->finalize(*restored), fn->finalize(state)) << fn->name;

    // Empty states round-trip too (no payload).
    AggState empty;
    Result<AggState> empty_restored =
        fn->DeserializeState(fn->SerializeState(empty));
    ASSERT_TRUE(empty_restored.ok()) << fn->name;
    EXPECT_TRUE(empty_restored->empty()) << fn->name;
  }
}

TEST(StateSerialization, WrongPayloadSizeFailsCleanly) {
  AggState sketchy;
  Agg("P99")->accumulate(&sketchy, 1.0);
  const std::string p99_bytes = Agg("P99")->SerializeState(sketchy);
  // A sketch payload cannot restore into an inline function...
  EXPECT_FALSE(Agg("SUM")->DeserializeState(p99_bytes).ok());
  // ...nor into a different sketch layout.
  EXPECT_FALSE(Agg("DISTINCT_COUNT")->DeserializeState(p99_bytes).ok());

  AggState inline_state;
  Agg("SUM")->accumulate(&inline_state, 1.0);
  EXPECT_FALSE(
      Agg("P99")->DeserializeState(Agg("SUM")->SerializeState(inline_state))
          .ok());
}

// --- Sketch quality and invariance -----------------------------------------

TEST(QuantileSketch, EstimatesWithinRelativeErrorBound) {
  AggFn p99 = Agg("P99");
  AggState s;
  for (int i = 1; i <= 10000; ++i) {
    p99->accumulate(&s, static_cast<double>(i));
  }
  const double estimate = p99->finalize(s);
  EXPECT_NEAR(estimate, 9900.0, 9900.0 * 0.10);  // ~9% design error.
}

TEST(QuantileSketch, ConstantInputIsExactViaMinMaxClamp) {
  AggFn p99 = Agg("P99");
  AggState s;
  for (int i = 0; i < 1000; ++i) p99->accumulate(&s, 42.5);
  EXPECT_DOUBLE_EQ(p99->finalize(s), 42.5);
}

TEST(QuantileSketch, NegativeValues) {
  AggFn p99 = Agg("P99");
  AggState s;
  for (int i = 1; i <= 1000; ++i) {
    p99->accumulate(&s, -static_cast<double>(i));
  }
  // Ascending rank 990 of {-1000..-1} is -11.
  EXPECT_NEAR(p99->finalize(s), -11.0, 11.0 * 0.15);
}

TEST(QuantileSketch, PartitionInvariantBitwise) {
  // Any partitioning folds to the identical state — the property that
  // makes P99 shareable and resize-exact. Compare serialized bytes.
  AggFn p99 = Agg("P99");
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.UniformReal(-1e6, 1e6));

  AggState direct;
  for (double v : values) p99->accumulate(&direct, v);

  AggState merged;
  for (size_t lo = 0; lo < values.size(); lo += 311) {
    AggState part;
    for (size_t i = lo; i < std::min(values.size(), lo + 311); ++i) {
      p99->accumulate(&part, values[i]);
    }
    p99->merge(&merged, part);
  }
  EXPECT_EQ(p99->SerializeState(merged), p99->SerializeState(direct));
}

TEST(QuantileSketch, NonFiniteInputsAreDefinedBehavior) {
  // Infinities clamp into the edge buckets (no float->int UB) and NaN
  // takes a deterministic slot without poisoning the min/max clamp.
  AggFn p99 = Agg("P99");
  AggState s;
  p99->accumulate(&s, std::numeric_limits<double>::infinity());
  p99->accumulate(&s, -std::numeric_limits<double>::infinity());
  p99->accumulate(&s, std::numeric_limits<double>::quiet_NaN());
  for (int i = 0; i < 100; ++i) p99->accumulate(&s, 5.0);
  EXPECT_EQ(s.n, 103u);
  const double estimate = p99->finalize(s);
  // Rank 102 of 103 lands in the finite bulk or the +inf tail; either
  // way the result is well-defined (and here, the clamp allows +inf).
  EXPECT_FALSE(std::isnan(estimate));

  AggState finite;
  p99->accumulate(&finite, std::numeric_limits<double>::quiet_NaN());
  for (int i = 0; i < 100; ++i) p99->accumulate(&finite, 7.5);
  EXPECT_DOUBLE_EQ(p99->finalize(finite), 7.5);  // NaN never escapes.
}

TEST(StateSerialization, PooledEmptyStateRoundTrips) {
  // A state cleared for pool reuse keeps its sketch allocation (n == 0,
  // ext buffer still attached); serialization canonicalizes it to the
  // plain empty record, which must restore cleanly.
  AggFn p99 = Agg("P99");
  AggState state;
  p99->accumulate(&state, 1.0);
  state.Clear();
  ASSERT_TRUE(state.empty());
  ASSERT_GT(state.ext_size(), 0u);  // The recycled allocation.
  const std::string bytes = p99->SerializeState(state);
  EXPECT_EQ(bytes, p99->SerializeState(AggState{}));  // Canonical form.
  Result<AggState> restored = p99->DeserializeState(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->empty());
  EXPECT_EQ(restored->ext_size(), 0u);
}

TEST(HllSketch, EstimatesDistinctCountsWithinStandardError) {
  AggFn dc = Agg("DISTINCT_COUNT");
  AggState s;
  // 500 distinct values, each seen 10 times.
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (int v = 0; v < 500; ++v) {
      dc->accumulate(&s, static_cast<double>(v) * 1.5 + 0.25);
    }
  }
  const double estimate = dc->finalize(s);
  // 256 registers: ~6.5% standard error; allow 3 sigma.
  EXPECT_NEAR(estimate, 500.0, 500.0 * 0.20);
}

TEST(HllSketch, OverlapMergeIsIdempotent) {
  // The declared Theorem-6 property: merging sub-aggregates over
  // overlapping inputs cannot change the estimate (register-wise max).
  AggFn dc = Agg("DISTINCT_COUNT");
  AggState a;
  for (int v = 0; v < 300; ++v) dc->accumulate(&a, static_cast<double>(v));
  AggState merged = a;
  dc->merge(&merged, a);  // Full overlap.
  EXPECT_EQ(dc->finalize(merged), dc->finalize(a));
}

TEST(FirstLast, ReferenceSemantics) {
  std::vector<double> values = {3.5, -1.0, 7.25, 2.0};
  EXPECT_DOUBLE_EQ(AggReference(Agg("FIRST"), values).value(), 3.5);
  EXPECT_DOUBLE_EQ(AggReference(Agg("LAST"), values).value(), 2.0);
}

// --- Unknown names fail cleanly at AddQuery --------------------------------

TEST(UnknownFunction, SqlPathFailsAtAddQuery) {
  StreamSession session;
  Result<QueryId> id = session.AddQuery(
      "SELECT BOGUS(v) FROM s GROUP BY WINDOWS(TUMBLINGWINDOW(10))");
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("unknown aggregate function"),
            std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(session.num_queries(), 0u);
}

TEST(UnknownFunction, BuilderPathFailsAtAddQuery) {
  StreamSession session;
  Result<QueryId> id = session.AddQuery(
      Query().Aggregate("BOGUS", "v").From("s").Tumbling(10));
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("unknown aggregate function"),
            std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(session.num_queries(), 0u);
}

// --- Holistic fallback -----------------------------------------------------

TEST(HolisticFallback, SessionRefusesHolisticFunctions) {
  StreamSession session;
  EXPECT_EQ(session.AddQuery(Query().Median("v").From("s").Tumbling(10))
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

// --- A user-defined aggregate, end to end ----------------------------------

// GEOMEAN: geometric mean of positive values via a sum of logs — exactly
// the footnote-2 scenario: a new algebraic function plugged in without
// touching the optimizer, engine, or runtime.
void GeomeanAccumulate(AggState* s, double v) {
  s->v1 += std::log(v);
  ++s->n;
}
void GeomeanMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 += o.v1;
  s->n += o.n;
}
double GeomeanFinalize(const AggState& s) {
  return std::exp(s.v1 / static_cast<double>(s.n));
}

AggFn RegisterGeomeanOnce() {
  static AggFn fn = [] {
    AggregateFunction geomean;
    geomean.name = "GEOMEAN";
    geomean.description = "geometric mean (user-defined test aggregate)";
    geomean.agg_class = AggClass::kAlgebraic;
    geomean.accumulate = GeomeanAccumulate;
    geomean.merge = GeomeanMerge;
    geomean.finalize = GeomeanFinalize;
    Result<AggFn> registered =
        AggregateRegistry::Global().Register(geomean);
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
    return *registered;
  }();
  return fn;
}

TEST(UserDefined, FlowsThroughSqlOptimizerAndSession) {
  AggFn geomean = RegisterGeomeanOnce();
  ASSERT_NE(geomean, nullptr);
  EXPECT_EQ(FindAggregate("geomean"), geomean);

  // SQL round trip through the parser.
  Result<StreamQuery> parsed = ParseQuery(
      "SELECT GEOMEAN(v) FROM metrics GROUP BY WINDOWS(TUMBLINGWINDOW(20), "
      "TUMBLINGWINDOW(40))");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->agg, geomean);
  EXPECT_NE(parsed->ToSql().find("GEOMEAN(v)"), std::string::npos);

  // The optimizer shares it under "partitioned by" (declared algebraic,
  // not overlap-safe) — T(40) reads T(20)'s sub-aggregates.
  EXPECT_TRUE(SupportsSharing(geomean));
  Result<OptimizationOutcome> outcome =
      OptimizeQuery(parsed->windows, parsed->agg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->semantics, CoverageSemantics::kPartitionedBy);
  EXPECT_GT(QueryPlan::FromMinCostWcg(outcome->with_factors, parsed->agg)
                .NumSharedEdges(),
            0);

  // Live session: results match the reference evaluation per window.
  StreamSession session;
  std::vector<WindowResult> results;
  Result<QueryId> id = session.AddQuery(
      *parsed, [&results](const WindowResult& r) { results.push_back(r); });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  std::vector<Event> events;
  Rng rng(1234);
  for (TimeT t = 0; t < 200; ++t) {
    events.push_back(Event{t, 0, rng.UniformReal(0.5, 20.0)});
  }
  ASSERT_TRUE(session.PushBatch(events).ok());
  ASSERT_TRUE(session.Finish().ok());
  ASSERT_FALSE(results.empty());
  for (const WindowResult& r : results) {
    std::vector<double> window_values;
    for (const Event& e : events) {
      if (e.timestamp >= r.start && e.timestamp < r.end) {
        window_values.push_back(e.value);
      }
    }
    ASSERT_FALSE(window_values.empty());
    EXPECT_NEAR(r.value, AggReference(geomean, window_values).value(), 1e-9)
        << "window [" << r.start << ", " << r.end << ")";
  }
}

}  // namespace
}  // namespace fw
