#ifndef FW_RUNTIME_SHARD_CHECKPOINT_H_
#define FW_RUNTIME_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/checkpoint.h"

namespace fw {

/// Conversions between per-shard executor checkpoints and the global
/// (single-threaded) checkpoint view, operator state only: the reorder
/// section belongs to ShardedExecutor's one reorder stage ahead of
/// partitioning, which attaches and restores it whole. They are what
/// makes checkpoints — and therefore StreamSession's lineage-migrating
/// replans — shard-aware *and* shard-count portable: a checkpoint merged
/// from a 4-shard run restores into a 1- or 8-shard executor over the
/// same plan, because all operator state is per-key and shards own
/// disjoint key slices.
///
/// Soundness of the merge rests on the session-wide ordering invariant
/// (events arrive in non-decreasing timestamp order across the *whole*
/// stream): a shard that lags — its local watermark trails because its
/// keys went quiet — still holds exactly the open instances that future
/// events for its keys can fold into, since any instance a faster shard
/// already closed has an end at or before the global watermark and can
/// never receive post-checkpoint input.
///
/// ShardedExecutor additionally *canonicalizes* before snapshotting
/// (PlanExecutor::CloseThrough): every instance the delivered frontier
/// allows is closed on every shard, so the merged view never depends on
/// how far each shard's close cursor happened to trail. This matters the
/// moment a checkpoint feeds a replan that introduces a cold operator: a
/// provider instance still open on a lagging shard would emit its tail
/// into the *new* plan, while the same instance already closed on another
/// topology emitted into the *old* one — breaking shard-count invariance
/// for windows straddling the swap (tests/elasticity_test.cc and the fuzz
/// harness pin the fixed behavior).

/// Merges one checkpoint per shard (same plan, disjoint keys) into the
/// global view: per operator, cursors advance to the furthest shard
/// (max next_m), op counters sum, and open instances union by instance
/// number with per-key states taken from the owning shard. The reorder
/// section is left empty. Errors if the checkpoints disagree on plan
/// shape, or if two shards both hold state for one key (a
/// partitioning-invariant violation).
Result<ExecutorCheckpoint> MergeShardCheckpoints(
    const std::vector<ExecutorCheckpoint>& shards);

/// Projects a global checkpoint's operator state onto shard `shard` of
/// `num_shards`: every per-key state whose key hashes elsewhere
/// (ShardForKey) is cleared to empty, and instances and cursors are kept
/// as-is (an all-empty instance emits nothing and closes silently).
/// Accumulate-op counters are carried on shard 0 only, so merging over
/// shards preserves the global values. The reorder section is dropped.
ExecutorCheckpoint ExtractShardCheckpoint(const ExecutorCheckpoint& global,
                                          uint32_t shard,
                                          uint32_t num_shards);

}  // namespace fw

#endif  // FW_RUNTIME_SHARD_CHECKPOINT_H_
