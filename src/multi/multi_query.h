#ifndef FW_MULTI_MULTI_QUERY_H_
#define FW_MULTI_MULTI_QUERY_H_

#include <vector>

#include "exec/sink.h"
#include "factor/optimizer.h"
#include "plan/plan.h"
#include "query/query.h"

namespace fw {

/// Multi-query sharing for the paper's motivating scenario (§I): Azure
/// IoT Central hosts many concurrent dashboard queries — same stream,
/// same aggregate, different window sizes. Instead of optimizing each
/// query alone, the batch's windows are merged into one window set,
/// optimized once (so windows of *different queries* share computation
/// and factor windows amortize across the batch), and executed as a
/// single plan whose results are routed back to the subscribing queries.
class MultiQueryOptimizer {
 public:
  /// Where one query's window results come from in the shared plan.
  struct Subscription {
    int query_index = 0;
    Window window{1, 1};
    int plan_operator = 0;  // Operator index in the shared plan.
  };

  struct SharedPlan {
    QueryPlan plan;
    std::vector<Subscription> subscriptions;
    /// Model cost of the shared plan vs the sum of individually
    /// optimized per-query plans (both with factor windows).
    double shared_cost = 0.0;
    double independent_cost = 0.0;
    /// Model cost of running every query's original (unshared) plan — the
    /// ASA/Flink default. Cheap (no optimizer run), so always computed.
    double original_cost = 0.0;

    /// Shared cost vs the unshared original plans.
    double PredictedBoost() const {
      return original_cost > 0.0 && shared_cost > 0.0
                 ? original_cost / shared_cost
                 : 1.0;
    }

    double PredictedSavings() const {
      // Both guards matter: independent_cost == 0 when the baseline was
      // skipped (Reoptimize), shared_cost == 0 for degenerate plans that
      // would otherwise report an infinite saving.
      return independent_cost > 0.0 && shared_cost > 0.0
                 ? independent_cost / shared_cost
                 : 1.0;
    }

    /// Shard-aware cost reporting: the model cost of this shared plan on
    /// a key-partitioned executor (runtime/ShardedExecutor) with
    /// `num_shards` workers over a `num_keys` key space. All engine work
    /// is per-key, so under perfect balance the critical-path cost is the
    /// single-threaded cost divided by the effective shard count
    /// (EffectiveShards: at most one shard per key — a keyless plan does
    /// not parallelize). Idealized: hash-partition skew and hand-off
    /// overhead are not modeled.
    double ShardedCost(uint32_t num_shards, uint32_t num_keys) const;

    /// Predicted speedup of the sharded shared plan over running every
    /// query's original plan single-threaded: PredictedBoost() times the
    /// effective shard count.
    double PredictedShardBoost(uint32_t num_shards, uint32_t num_keys) const;

    /// Predicted critical-path speedup of re-scaling this plan from
    /// `from_shards` to `to_shards` workers over a `num_keys` key space:
    /// ShardedCost(from) / ShardedCost(to). Exactly 1 when the effective
    /// width does not change (both clamp to the key space, or the plan is
    /// keyless) — StreamSession's auto-resize policy uses this to veto
    /// scale-ups that the model says cannot pay for their swap.
    double PredictedResizeGain(uint32_t from_shards, uint32_t to_shards,
                               uint32_t num_keys) const;
  };

  /// Optimizes a batch of queries jointly. All queries must target the
  /// same source stream and use the same (shareable) aggregate function —
  /// the IoT-dashboard shape. Duplicate windows across queries are
  /// coalesced into one operator with multiple subscriptions.
  static Result<SharedPlan> Optimize(const std::vector<StreamQuery>& queries,
                                     const OptimizerOptions& options = {});

  /// Re-optimization entry point for a live query set (StreamSession's
  /// replan path): coalesces the batch's windows and optimizes the shared
  /// plan exactly like Optimize, but skips the per-query independently-
  /// optimized baseline unless `with_baseline` — the baseline is one extra
  /// optimizer run per query, pure reporting, and replan latency is on the
  /// serving path. Without the baseline, independent_cost is 0 and
  /// PredictedSavings() reports 1.
  static Result<SharedPlan> Reoptimize(const std::vector<StreamQuery>& queries,
                                       const OptimizerOptions& options = {},
                                       bool with_baseline = false);
};

/// Demultiplexes shared-plan results to per-query sinks using the
/// subscription table. Operators without subscribers (possible only for
/// factor windows, which are unexposed anyway) are ignored.
class RoutingSink : public ResultSink {
 public:
  /// `sinks[i]` receives query i's results with operator ids rewritten to
  /// the window's position within that query's own window set. All sinks
  /// must outlive the router.
  RoutingSink(const MultiQueryOptimizer::SharedPlan& shared,
              const std::vector<StreamQuery>& queries,
              std::vector<ResultSink*> sinks);

  /// Per-result routing: one rewritten copy per subscriber.
  void OnResult(const WindowResult& result) override;
  /// Forwards the block once to each subscriber under its local operator
  /// id; the key and value arrays pass through uncopied.
  void OnBlock(int operator_id, TimeT start, TimeT end, const uint32_t* keys,
               const double* values, size_t count) override;

 private:
  struct Route {
    int query_index;
    int local_operator;  // Index within the query's own window set.
  };
  /// Subscribers of each shared-plan operator, indexed by operator id.
  std::vector<std::vector<Route>> routes_;
  std::vector<ResultSink*> sinks_;
};

}  // namespace fw

#endif  // FW_MULTI_MULTI_QUERY_H_
