#include "agg/aggregate.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "agg/sketch.h"
#include "common/codec.h"
#include "common/logging.h"

namespace fw {

namespace {

std::string UpperCased(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return upper;
}

bool IsIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// Bootstraps a sketch extension on first touch and returns the typed
// state. Sketches are trivially-copyable PODs placement-constructed into
// the state's extension buffer (the state_bytes contract).
template <typename Sketch>
Sketch* SketchOf(AggState* state) {
  if (state->n == 0) {
    return new (state->EnsureExt(sizeof(Sketch))) Sketch();
  }
  return state->template ext_as<Sketch>();
}

// --- Built-in operations ---------------------------------------------------
//
// Contracts (see AggregateFunction): accumulate folds one raw value and
// advances n; merge folds a sub-aggregate, no-ops on empty `other`, and
// handles an empty `this` (states bootstrap lazily — there is no separate
// identity step on the hot path); finalize is only called on non-empty
// states.

// MIN/MAX/RANGE select instead of branching: `v < cur ? v : cur` compiles
// to minsd (`>` to maxsd), so a random stream costs no mispredicted
// compares. It is the `if (v < cur) cur = v` form with the comparison
// direction kept: a failed compare keeps `cur`, so a NaN candidate never
// replaces the extremum, a NaN that seeded the state sticks, and a +0/-0
// tie keeps the current value. An empty state seeds from the candidate
// first (v < v fails, storing v).
double SelectMin(double v, double cur) { return v < cur ? v : cur; }
double SelectMax(double v, double cur) { return v > cur ? v : cur; }

void MinAccumulate(AggState* s, double v) {
  s->v1 = SelectMin(v, s->n == 0 ? v : s->v1);
  ++s->n;
}
void MinMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 = SelectMin(o.v1, s->n == 0 ? o.v1 : s->v1);
  s->n += o.n;
}
double ValueFinalize(const AggState& s) { return s.v1; }

void MaxAccumulate(AggState* s, double v) {
  s->v1 = SelectMax(v, s->n == 0 ? v : s->v1);
  ++s->n;
}
void MaxMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 = SelectMax(o.v1, s->n == 0 ? o.v1 : s->v1);
  s->n += o.n;
}

void SumAccumulate(AggState* s, double v) {
  s->v1 += v;
  ++s->n;
}
void SumMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 += o.v1;
  s->n += o.n;
}

void CountAccumulate(AggState* s, double) { ++s->n; }
void CountMerge(AggState* s, const AggState& o) { s->n += o.n; }
double CountFinalize(const AggState& s) {
  return static_cast<double>(s.n);
}

double AvgFinalize(const AggState& s) {
  return s.v1 / static_cast<double>(s.n);
}

void MomentsAccumulate(AggState* s, double v) {
  s->v1 += v;
  s->v2 += v * v;
  ++s->n;
}
void MomentsMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 += o.v1;
  s->v2 += o.v2;
  s->n += o.n;
}
// Sum-of-squares variance can go (slightly) negative under catastrophic
// cancellation for near-constant large-magnitude inputs; the clamp keeps
// VARIANCE at 0 and STDEV's sqrt off NaN.
double VarianceFinalize(const AggState& s) {
  const double count = static_cast<double>(s.n);
  const double mean = s.v1 / count;
  return std::max(s.v2 / count - mean * mean, 0.0);
}
double StdevFinalize(const AggState& s) {
  return std::sqrt(VarianceFinalize(s));
}

// Both bounds load before either store: storing v1 first leaves GCC 12 to
// branch on the v2 compare.
void RangeAccumulate(AggState* s, double v) {
  const bool seed = s->n == 0;
  const double lo = seed ? v : s->v1;
  const double hi = seed ? v : s->v2;
  s->v1 = SelectMin(v, lo);
  s->v2 = SelectMax(v, hi);
  ++s->n;
}
void RangeMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  const bool seed = s->n == 0;
  const double lo = seed ? o.v1 : s->v1;
  const double hi = seed ? o.v2 : s->v2;
  s->v1 = SelectMin(o.v1, lo);
  s->v2 = SelectMax(o.v2, hi);
  s->n += o.n;
}
double RangeFinalize(const AggState& s) { return s.v2 - s.v1; }

// FIRST/LAST lean on the ordering contract: raw values fold in time order
// and sub-aggregates merge in non-decreasing window-end order ("partitioned
// by" tiles arrive oldest first), so "first seen" / "latest seen" are the
// window's first/last value.
void FirstAccumulate(AggState* s, double v) {
  if (s->n == 0) s->v1 = v;
  ++s->n;
}
void FirstMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  if (s->n == 0) s->v1 = o.v1;
  s->n += o.n;
}

void LastAccumulate(AggState* s, double v) {
  s->v1 = v;
  ++s->n;
}
void LastMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  s->v1 = o.v1;
  s->n += o.n;
}

// --- Batch kernels ---------------------------------------------------------
//
// Each must be *bitwise* equivalent to calling its scalar accumulate once
// per value in array order — the engine mixes scalar and batch folds into
// the same state (accumulate_batch contract, DESIGN.md §14). SUM/AVG and
// the moments fold sequentially through the same addition chain (FP
// addition is non-associative, so no reassociation); the extremum kernels
// keep the scalar comparison direction, so NaN handling matches too: a
// NaN candidate fails `v < m` / `v > m` and never replaces the extremum,
// while a NaN that seeded the state sticks — exactly like the scalar path.

void MinAccumulateBatch(AggState* s, const double* v, size_t count) {
  if (count == 0) return;
  size_t i = 0;
  if (s->n == 0) {
    s->v1 = v[0];
    i = 1;
  }
  double m = s->v1;
  for (; i < count; ++i) m = SelectMin(v[i], m);
  s->v1 = m;
  s->n += count;
}

void MaxAccumulateBatch(AggState* s, const double* v, size_t count) {
  if (count == 0) return;
  size_t i = 0;
  if (s->n == 0) {
    s->v1 = v[0];
    i = 1;
  }
  double m = s->v1;
  for (; i < count; ++i) m = SelectMax(v[i], m);
  s->v1 = m;
  s->n += count;
}

void SumAccumulateBatch(AggState* s, const double* v, size_t count) {
  double acc = s->v1;
  for (size_t i = 0; i < count; ++i) acc += v[i];
  s->v1 = acc;
  s->n += count;
}

void CountAccumulateBatch(AggState* s, const double*, size_t count) {
  s->n += count;
}

void MomentsAccumulateBatch(AggState* s, const double* v, size_t count) {
  double sum = s->v1;
  double squares = s->v2;
  for (size_t i = 0; i < count; ++i) {
    sum += v[i];
    squares += v[i] * v[i];
  }
  s->v1 = sum;
  s->v2 = squares;
  s->n += count;
}

void RangeAccumulateBatch(AggState* s, const double* v, size_t count) {
  if (count == 0) return;
  size_t i = 0;
  if (s->n == 0) {
    s->v1 = v[0];
    s->v2 = v[0];
    i = 1;
  }
  double lo = s->v1;
  double hi = s->v2;
  for (; i < count; ++i) {
    lo = SelectMin(v[i], lo);
    hi = SelectMax(v[i], hi);
  }
  s->v1 = lo;
  s->v2 = hi;
  s->n += count;
}

void FirstAccumulateBatch(AggState* s, const double* v, size_t count) {
  if (count == 0) return;
  if (s->n == 0) s->v1 = v[0];
  s->n += count;
}

void LastAccumulateBatch(AggState* s, const double* v, size_t count) {
  if (count == 0) return;
  s->v1 = v[count - 1];
  s->n += count;
}

// One merge_batch call merges a closed instance's whole key list into one
// open instance, so the sub-aggregate path pays one indirect call per
// open instance instead of one per (instance, key). The kernel inlines the
// function's own scalar merge into the loop, so it is bitwise equivalent
// to the per-key calls in key-list order by construction (merge_batch
// contract, DESIGN.md §14) — and branch-free on the values for the
// extrema, whose scalar merges select.
template <void (*Merge)(AggState*, const AggState&)>
void MergeBatch(AggState* states, const AggState* others,
                const uint32_t* keys, size_t count) {
  for (size_t i = 0; i < count; ++i) Merge(&states[keys[i]], others[keys[i]]);
}

double MedianFinalize(HolisticState* state) {
  FW_CHECK(!state->empty()) << "finalize of empty holistic state";
  size_t mid = (state->values.size() - 1) / 2;
  std::nth_element(state->values.begin(), state->values.begin() + mid,
                   state->values.end());
  return state->values[mid];
}

void P99Accumulate(AggState* s, double v) {
  SketchOf<QuantileSketch>(s)->Add(v);
  ++s->n;
}
void P99Merge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  QuantileSketch* sketch = SketchOf<QuantileSketch>(s);
  sketch->Merge(*o.ext_as<QuantileSketch>());
  s->n += o.n;
}
double P99Finalize(const AggState& s) {
  return s.ext_as<QuantileSketch>()->Quantile(0.99, s.n);
}

void DistinctAccumulate(AggState* s, double v) {
  SketchOf<HllSketch>(s)->Add(v);
  ++s->n;
}
void DistinctMerge(AggState* s, const AggState& o) {
  if (o.n == 0) return;
  HllSketch* sketch = SketchOf<HllSketch>(s);
  sketch->Merge(*o.ext_as<HllSketch>());
  s->n += o.n;
}
double DistinctFinalize(const AggState& s) {
  return s.ext_as<HllSketch>()->Estimate();
}

void RegisterBuiltins(AggregateRegistry* registry) {
  const auto must = [registry](AggregateFunction fn) {
    Result<AggFn> registered = registry->Register(std::move(fn));
    FW_CHECK(registered.ok()) << registered.status().message();
  };
  // The paper's §III-A set: MIN/MAX/SUM/COUNT distributive, AVG/STDEV
  // algebraic, MEDIAN holistic — plus the footnote-2 extensions VARIANCE
  // and RANGE (overlap-safe like MIN/MAX: its (min, max) state is a pair
  // of idempotent components).
  must({.name = "MIN",
        .description = "smallest value",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = true,
        .merge_order_sensitive = false,
        .accumulate = MinAccumulate,
        .accumulate_batch = MinAccumulateBatch,
        .merge = MinMerge,
        .merge_batch = MergeBatch<MinMerge>,
        .finalize = ValueFinalize});
  must({.name = "MAX",
        .description = "largest value",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = true,
        .merge_order_sensitive = false,
        .accumulate = MaxAccumulate,
        .accumulate_batch = MaxAccumulateBatch,
        .merge = MaxMerge,
        .merge_batch = MergeBatch<MaxMerge>,
        .finalize = ValueFinalize});
  must({.name = "SUM",
        .description = "sum of values",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .accumulate = SumAccumulate,
        .accumulate_batch = SumAccumulateBatch,
        .merge = SumMerge,
        .merge_batch = MergeBatch<SumMerge>,
        .finalize = ValueFinalize});
  must({.name = "COUNT",
        .description = "number of events",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .accumulate = CountAccumulate,
        .accumulate_batch = CountAccumulateBatch,
        .merge = CountMerge,
        .merge_batch = MergeBatch<CountMerge>,
        .finalize = CountFinalize});
  must({.name = "AVG",
        .description = "arithmetic mean",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .accumulate = SumAccumulate,
        .accumulate_batch = SumAccumulateBatch,
        .merge = SumMerge,
        .merge_batch = MergeBatch<SumMerge>,
        .finalize = AvgFinalize});
  must({.name = "STDEV",
        .description = "population standard deviation",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .accumulate = MomentsAccumulate,
        .accumulate_batch = MomentsAccumulateBatch,
        .merge = MomentsMerge,
        .merge_batch = MergeBatch<MomentsMerge>,
        .finalize = StdevFinalize});
  must({.name = "VARIANCE",
        .description = "population variance",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .accumulate = MomentsAccumulate,
        .accumulate_batch = MomentsAccumulateBatch,
        .merge = MomentsMerge,
        .merge_batch = MergeBatch<MomentsMerge>,
        .finalize = VarianceFinalize});
  must({.name = "RANGE",
        .description = "max - min",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = true,
        .merge_order_sensitive = false,
        .accumulate = RangeAccumulate,
        .accumulate_batch = RangeAccumulateBatch,
        .merge = RangeMerge,
        .merge_batch = MergeBatch<RangeMerge>,
        .finalize = RangeFinalize});
  must({.name = "MEDIAN",
        .description = "middle value (holistic; unshared plans only)",
        .agg_class = AggClass::kHolistic,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .holistic_finalize = MedianFinalize});
  // Registry-era extensions: the functions footnote 2 asks for, flowing
  // through the same sharing machinery via their declared properties.
  must({.name = "FIRST",
        .description = "earliest value in the window",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = false,
        .merge_order_sensitive = true,
        .accumulate = FirstAccumulate,
        .accumulate_batch = FirstAccumulateBatch,
        .merge = FirstMerge,
        .merge_batch = MergeBatch<FirstMerge>,
        .finalize = ValueFinalize});
  must({.name = "LAST",
        .description = "latest value in the window",
        .agg_class = AggClass::kDistributive,
        .overlap_merge_safe = false,
        .merge_order_sensitive = true,
        .accumulate = LastAccumulate,
        .accumulate_batch = LastAccumulateBatch,
        .merge = LastMerge,
        .merge_batch = MergeBatch<LastMerge>,
        .finalize = ValueFinalize});
  must({.name = "P99",
        .description =
            "99th-percentile estimate (log-bucketed quantile sketch)",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = false,
        .merge_order_sensitive = false,
        .state_bytes = sizeof(QuantileSketch),
        .accumulate = P99Accumulate,
        .merge = P99Merge,
        .finalize = P99Finalize});
  must({.name = "DISTINCT_COUNT",
        .description = "distinct-value estimate (HyperLogLog sketch)",
        .agg_class = AggClass::kAlgebraic,
        .overlap_merge_safe = true,
        .merge_order_sensitive = false,
        .state_bytes = sizeof(HllSketch),
        .accumulate = DistinctAccumulate,
        .merge = DistinctMerge,
        .finalize = DistinctFinalize});
}

}  // namespace

const char* AggClassToString(AggClass cls) {
  switch (cls) {
    case AggClass::kDistributive:
      return "distributive";
    case AggClass::kAlgebraic:
      return "algebraic";
    case AggClass::kHolistic:
      return "holistic";
  }
  return "unknown";
}

uint8_t* AggState::EnsureExt(uint32_t size) {
  if (ext_size_ != size) {
    delete[] ext_;
    ext_ = size > 0 ? new uint8_t[size]() : nullptr;
    ext_size_ = size;
  }
  return ext_;
}

Result<CoverageSemantics> AggregateFunction::SharingSemantics() const {
  if (!SupportsSharing()) {
    return Status::Unimplemented(
        name + " is holistic; shared evaluation is not supported");
  }
  return overlap_merge_safe ? CoverageSemantics::kCoveredBy
                            : CoverageSemantics::kPartitionedBy;
}

void EncodeAggState(const AggState& state, ByteWriter* w) {
  // Canonical form: empty states drop any recycled extension allocation.
  const uint32_t ext_size = state.empty() ? 0 : state.ext_size();
  w->F64(state.v1);
  w->F64(state.v2);
  w->U64(state.n);
  w->U32(ext_size);
  if (ext_size > 0) w->Bytes(state.ext(), ext_size);
}

Status DecodeAggState(ByteReader* r, AggState* state) {
  uint32_t ext_size = 0;
  std::string_view payload;
  if (!r->F64(&state->v1) || !r->F64(&state->v2) || !r->U64(&state->n) ||
      !r->U32(&ext_size) || !r->Bytes(ext_size, &payload)) {
    return Status::InvalidArgument("truncated aggregate-state record");
  }
  if (state->empty() && ext_size > 0) {
    return Status::InvalidArgument("empty aggregate state carries a payload");
  }
  uint8_t* ext = state->EnsureExt(ext_size);
  if (ext_size > 0) std::memcpy(ext, payload.data(), ext_size);
  return Status::OK();
}

std::string AggregateFunction::SerializeState(const AggState& state) const {
  ByteWriter w;
  EncodeAggState(state, &w);
  return w.Take();
}

Result<AggState> AggregateFunction::DeserializeState(
    const std::string& bytes) const {
  ByteReader r(bytes);
  AggState state;
  FW_RETURN_IF_ERROR(DecodeAggState(&r, &state));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after aggregate state");
  }
  const uint32_t expected = state.n == 0 ? 0 : state_bytes;
  if (state.ext_size() != expected) {
    return Status::InvalidArgument(
        "state payload is " + std::to_string(state.ext_size()) + " bytes, " +
        name + " expects " + std::to_string(expected));
  }
  return state;
}

AggregateRegistry& AggregateRegistry::Global() {
  static AggregateRegistry* registry = [] {
    auto* r = new AggregateRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

Result<AggFn> AggregateRegistry::Register(AggregateFunction fn) {
  fn.name = UpperCased(fn.name);
  if (!IsIdentifier(fn.name)) {
    return Status::InvalidArgument(
        "aggregate name '" + fn.name +
        "' is not an identifier ([A-Z_][A-Z0-9_]*)");
  }
  if (fn.agg_class == AggClass::kHolistic) {
    if (fn.holistic_finalize == nullptr) {
      return Status::InvalidArgument(fn.name +
                                     ": holistic functions need "
                                     "holistic_finalize");
    }
    if (fn.accumulate_batch != nullptr) {
      return Status::InvalidArgument(fn.name +
                                     ": holistic functions take no "
                                     "accumulate_batch (no slice states "
                                     "to fold into)");
    }
    if (fn.merge_batch != nullptr) {
      return Status::InvalidArgument(fn.name +
                                     ": holistic functions take no "
                                     "merge_batch (no sub-aggregates "
                                     "to merge)");
    }
  } else if (fn.accumulate == nullptr || fn.merge == nullptr ||
             fn.finalize == nullptr) {
    return Status::InvalidArgument(
        fn.name + ": accumulate, merge, and finalize are required");
  }
  MutexLock lock(&mu_);
  if (FindLocked(fn.name) != nullptr) {
    return Status::AlreadyExists("aggregate '" + fn.name +
                                 "' is already registered");
  }
  fns_.push_back(std::make_unique<AggregateFunction>(std::move(fn)));
  return static_cast<AggFn>(fns_.back().get());
}

AggFn AggregateRegistry::FindLocked(const std::string& canonical) const {
  for (const auto& fn : fns_) {
    if (fn->name == canonical) return fn.get();
  }
  return nullptr;
}

AggFn AggregateRegistry::Find(std::string_view name) const {
  const std::string upper = UpperCased(name);
  MutexLock lock(&mu_);
  return FindLocked(upper);
}

std::vector<AggFn> AggregateRegistry::List() const {
  std::vector<AggFn> out;
  {
    MutexLock lock(&mu_);
    out.reserve(fns_.size());
    for (const auto& fn : fns_) out.push_back(fn.get());
  }
  std::sort(out.begin(), out.end(),
            [](AggFn a, AggFn b) { return a->name < b->name; });
  return out;
}

AggFn FindAggregate(std::string_view name) {
  return AggregateRegistry::Global().Find(name);
}

AggFn Agg(std::string_view name) {
  AggFn fn = FindAggregate(name);
  FW_CHECK(fn != nullptr) << "unknown aggregate function '" << name << "'";
  return fn;
}

double AggFinalize(AggFn fn, const AggState& state) {
  FW_CHECK(!state.empty()) << "finalize of empty aggregate state";
  return fn->finalize(state);
}

double HolisticFinalize(AggFn fn, HolisticState* state) {
  FW_CHECK(fn->holistic_finalize != nullptr)
      << fn->name << " is not holistic";
  return fn->holistic_finalize(state);
}

Result<double> AggReference(AggFn fn, const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("aggregate of empty input");
  }
  if (fn->agg_class == AggClass::kHolistic) {
    HolisticState h;
    h.values = values;
    return fn->holistic_finalize(&h);
  }
  AggState s;
  for (double v : values) fn->accumulate(&s, v);
  return fn->finalize(s);
}

}  // namespace fw
