#ifndef FW_AGG_AGGREGATE_H_
#define FW_AGG_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "window/coverage.h"

namespace fw {

class ByteReader;  // common/codec.h
class ByteWriter;

/// Gray et al.'s aggregate taxonomy (§III-A). The paper's sharing theorems
/// hang off this classification: distributive and algebraic functions have
/// constant-size sub-aggregates (Theorem 5) and can share computation;
/// holistic functions cannot and fall back to the unshared original plan.
enum class AggClass {
  kDistributive,
  kAlgebraic,
  kHolistic,
};

const char* AggClassToString(AggClass cls);

/// Partial-aggregate state. The inline fields are the constant-size fast
/// path every built-in uses (field meaning is per function, e.g. MIN keeps
/// its extremum in v1, AVG keeps sum in v1 and count in n); functions whose
/// state cannot fit three words — quantile and distinct-count sketches —
/// spill into an out-of-line extension buffer that the state owns, copies,
/// and recycles. `n` is the emptiness indicator for every function.
struct AggState {
  double v1 = 0.0;
  double v2 = 0.0;
  uint64_t n = 0;

  AggState() = default;
  AggState(const AggState& other)
      : v1(other.v1), v2(other.v2), n(other.n) {
    CopyExtFrom(other);
  }
  AggState& operator=(const AggState& other) {
    if (this != &other) {
      v1 = other.v1;
      v2 = other.v2;
      n = other.n;
      CopyExtFrom(other);
    }
    return *this;
  }
  AggState(AggState&& other) noexcept
      : v1(other.v1),
        v2(other.v2),
        n(other.n),
        ext_(other.ext_),
        ext_size_(other.ext_size_) {
    other.ext_ = nullptr;
    other.ext_size_ = 0;
  }
  AggState& operator=(AggState&& other) noexcept {
    if (this != &other) {
      delete[] ext_;
      v1 = other.v1;
      v2 = other.v2;
      n = other.n;
      ext_ = other.ext_;
      ext_size_ = other.ext_size_;
      other.ext_ = nullptr;
      other.ext_size_ = 0;
    }
    return *this;
  }
  ~AggState() { delete[] ext_; }

  bool empty() const { return n == 0; }

  const uint8_t* ext() const { return ext_; }
  uint8_t* ext() { return ext_; }
  uint32_t ext_size() const { return ext_size_; }

  /// Returns a writable extension buffer of exactly `size` bytes. The
  /// buffer is zero-filled when (re)allocated; contents are preserved when
  /// the current size already matches (state pools recycle sketch
  /// allocations across window instances).
  uint8_t* EnsureExt(uint32_t size);

  /// Zeroes the inline fields and the extension contents while keeping the
  /// extension allocation, so pooled state buffers reuse sketch storage.
  void Clear() {
    v1 = 0.0;
    v2 = 0.0;
    n = 0;
    if (ext_ != nullptr) std::memset(ext_, 0, ext_size_);
  }

  template <typename T>
  T* ext_as() {
    return reinterpret_cast<T*>(ext_);
  }
  template <typename T>
  const T* ext_as() const {
    return reinterpret_cast<const T*>(ext_);
  }

 private:
  void CopyExtFrom(const AggState& other) {
    if (other.ext_size_ == 0) {
      if (ext_ != nullptr) {
        delete[] ext_;
        ext_ = nullptr;
        ext_size_ = 0;
      }
      return;
    }
    if (ext_size_ != other.ext_size_) {
      delete[] ext_;
      ext_ = new uint8_t[other.ext_size_];
      ext_size_ = other.ext_size_;
    }
    std::memcpy(ext_, other.ext_, ext_size_);
  }

  uint8_t* ext_ = nullptr;
  uint32_t ext_size_ = 0;
};

/// Unbounded state for holistic aggregates (the slices would have to carry
/// all input events — paper §III-A). Used only on the unshared path.
struct HolisticState {
  std::vector<double> values;

  bool empty() const { return values.empty(); }
  void Add(double v) { values.push_back(v); }
};

/// Descriptor of one aggregate function — the open replacement for the
/// original closed enum (the paper's footnote 2 invites exactly this:
/// "future work could expand these two lists"). Everything the rest of the
/// system needs is *declared* here, so the optimizer's sharing decisions
/// (Theorems 5/6), the engine's hot loops, checkpoints, and shard
/// merge/split never special-case individual functions:
///
///  * `agg_class` — Gray taxonomy class; holistic functions are excluded
///    from shared evaluation (Theorem 5) and run on the unshared path via
///    `holistic_finalize`;
///  * `overlap_merge_safe` — Theorem 6 declaration: merging sub-aggregates
///    whose input partitions overlap is still correct (idempotent merges:
///    MIN/MAX/RANGE extrema, HLL register unions). Drives "covered by"
///    coverage semantics; everything else shares under "partitioned by";
///  * `state_bytes` — extension-state size. 0 keeps the inline
///    three-word fast path; non-zero states must be a trivially-copyable
///    blob of exactly this size, which is the serialization contract:
///    checkpoint canonicalization, lineage migration, and shard
///    merge/split persist and restore the raw bytes, so handoff stays
///    bitwise exact (the ROADMAP elasticity invariant);
///  * `accumulate`/`merge`/`finalize` — the data-path operations, resolved
///    once at plan build into per-operator function tables (no per-event
///    dispatch through the registry). `accumulate` folds one raw value and
///    must advance `n`; `merge` folds one sub-aggregate (callers deliver
///    sub-aggregates in non-decreasing window-end order, so order-dependent
///    functions like FIRST/LAST stay correct) and must no-op on an empty
///    `other`; `finalize` is only called on non-empty states. The optional
///    `accumulate_batch` and `merge_batch` kernels batch the first two
///    (DESIGN.md §14).
struct AggregateFunction {
  /// Canonical name (upper-case identifier: [A-Z_][A-Z0-9_]*). The SQL
  /// parser and QueryBuilder resolve any registered name.
  std::string name;
  /// One-line human description (README table, tooling).
  std::string description;
  AggClass agg_class = AggClass::kAlgebraic;
  bool overlap_merge_safe = false;
  /// True when merge results depend on sub-aggregate arrival order
  /// (FIRST/LAST). Plan execution always delivers sub-aggregates in
  /// non-decreasing window-end (time) order, so rewritten plans stay
  /// exact; evaluators that reassociate merges freely — the FlatFAT
  /// lazy-tree combiner — must fall back to in-order combining.
  bool merge_order_sensitive = false;
  uint32_t state_bytes = 0;
  void (*accumulate)(AggState* state, double value) = nullptr;
  /// Optional vectorizable batch fold (the columnar ingestion path,
  /// DESIGN.md §14): must be exactly equivalent — bitwise, not just
  /// mathematically — to calling `accumulate` once per value in array
  /// order, because the engine mixes scalar and batch folds into the same
  /// state. Null is always valid: the engine derives a scalar-loop
  /// fallback at plan build, so every registered function works on the
  /// batch path unchanged. Only meaningful alongside `accumulate`
  /// (holistic functions may not declare it).
  void (*accumulate_batch)(AggState* state, const double* values,
                           size_t count) = nullptr;
  void (*merge)(AggState* state, const AggState& other) = nullptr;
  /// Optional batch merge (the sub-aggregate path, DESIGN.md §14): must
  /// leave `states` bitwise equal to calling
  /// `merge(&states[keys[i]], others[keys[i]])` for i = 0..count-1 in
  /// order, repeated keys included. `states` and `others` are distinct
  /// arrays. Null is always valid: the engine then runs that loop itself.
  /// Like `accumulate_batch`, holistic functions may not declare it.
  void (*merge_batch)(AggState* states, const AggState* others,
                      const uint32_t* keys, size_t count) = nullptr;
  double (*finalize)(const AggState& state) = nullptr;
  /// Holistic functions only: final scalar from the full value multiset.
  double (*holistic_finalize)(HolisticState* state) = nullptr;

  /// True when the function can be computed from constant-size
  /// sub-aggregates at all (Theorem 5).
  bool SupportsSharing() const { return agg_class != AggClass::kHolistic; }

  /// The coverage semantics the optimizer must use for this function
  /// (paper footnote 2): "covered by" when overlapping merges are declared
  /// safe, "partitioned by" for the other shareable functions. Error for
  /// holistic functions, which fall back to the unshared original plan.
  Result<CoverageSemantics> SharingSemantics() const;

  /// State persistence (EncodeAggState, the checkpoint record for one
  /// state): inline fields as IEEE-754 bit patterns plus the raw
  /// extension bytes. DeserializeState validates the extension size
  /// against `state_bytes`, so restoring a sketch state into the wrong
  /// function fails cleanly.
  std::string SerializeState(const AggState& state) const;
  Result<AggState> DeserializeState(const std::string& bytes) const;
};

/// How the rest of the system refers to an aggregate function: a pointer
/// to its registered descriptor. Descriptors live for the process lifetime
/// at stable addresses, so equality is pointer equality.
using AggFn = const AggregateFunction*;

/// Process-wide function registry. Built-ins (and the sketch-backed
/// extensions) are registered on first access; user-defined aggregates
/// join through Register at any point before queries name them.
/// Thread-safe: Register and lookups take an internal mutex (lookups are
/// cold-path — hot loops run on pre-resolved function tables).
class AggregateRegistry {
 public:
  /// The global registry, with all built-ins registered.
  static AggregateRegistry& Global();

  /// Registers a function. Errors on an invalid descriptor (empty or
  /// non-identifier name, missing operations for its class) or a
  /// duplicate name (case-insensitive). On success the descriptor's
  /// address is stable for the registry's lifetime.
  Result<AggFn> Register(AggregateFunction fn);

  /// Case-insensitive lookup; null when unknown.
  AggFn Find(std::string_view name) const;

  /// All registered functions, by canonical name.
  std::vector<AggFn> List() const;

 private:
  AggFn FindLocked(const std::string& canonical) const FW_REQUIRES(mu_);

  mutable Mutex mu_;
  /// Stable addresses (unique_ptr per descriptor); mu_ guards the vector,
  /// never the descriptors — they are immutable once registered, which is
  /// why handing out bare AggFn pointers is safe.
  std::vector<std::unique_ptr<AggregateFunction>> fns_ FW_GUARDED_BY(mu_);
};

/// Case-insensitive lookup in the global registry; null when unknown.
AggFn FindAggregate(std::string_view name);

/// Lookup that CHECK-fails on unknown names — for call sites that name
/// built-ins statically (tests, examples, benchmarks).
AggFn Agg(std::string_view name);

/// Classification and sharing helpers over descriptors (the pre-registry
/// free-function spellings, kept so call sites read the same).
inline AggClass ClassOf(AggFn fn) { return fn->agg_class; }
inline bool SupportsSharing(AggFn fn) { return fn->SupportsSharing(); }
inline bool SupportsOverlappingMerge(AggFn fn) {
  return fn->overlap_merge_safe;
}
inline Result<CoverageSemantics> SemanticsFor(AggFn fn) {
  return fn->SharingSemantics();
}

/// Data-path wrappers. Hot paths resolve the function pointers once per
/// operator instead (exec/operator.cc); these are for cold call sites.
inline void AggAccumulate(AggFn fn, AggState* state, double value) {
  fn->accumulate(state, value);
}
inline void AggMerge(AggFn fn, AggState* state, const AggState& other) {
  fn->merge(state, other);
}
/// Batch merge with a scalar fallback: the function's `merge_batch`
/// kernel when declared, otherwise `merge` key by key — identical results
/// either way (the merge_batch contract). The engine's sub-aggregate path
/// calls it once per open instance (exec/operator.cc).
inline void AggMergeBatch(AggFn fn, AggState* states, const AggState* others,
                          const uint32_t* keys, size_t count) {
  if (fn->merge_batch != nullptr) {
    fn->merge_batch(states, others, keys, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    fn->merge(&states[keys[i]], others[keys[i]]);
  }
}
/// Checked finalize: CHECK-fails on an empty state (the finalize contract;
/// engine hot paths skip empty states and call the raw pointer instead).
double AggFinalize(AggFn fn, const AggState& state);
double HolisticFinalize(AggFn fn, HolisticState* state);

/// Reference (batch) evaluation of any aggregate over raw values, in time
/// order. Used by tests and the result verifier as ground truth. Empty
/// input is an error.
Result<double> AggReference(AggFn fn, const std::vector<double>& values);

/// The binary encoding of one state (common/codec.h) — F64 v1, F64 v2,
/// U64 n, U32 ext_size, then ext_size raw payload bytes — shared by the
/// ExecutorCheckpoint layout and AggregateFunction::SerializeState/
/// DeserializeState so the wire format cannot drift between them. Empty
/// states always encode with ext_size 0 (a pooled buffer may carry a
/// zeroed recycled allocation; the canonical form drops it, so every
/// record round-trips), and the decoder rejects an empty state that
/// carries a payload.
void EncodeAggState(const AggState& state, ByteWriter* w);
Status DecodeAggState(ByteReader* r, AggState* state);

}  // namespace fw

#endif  // FW_AGG_AGGREGATE_H_
