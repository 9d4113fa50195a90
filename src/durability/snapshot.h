#ifndef FW_DURABILITY_SNAPSHOT_H_
#define FW_DURABILITY_SNAPSHOT_H_

// The snapshot store (DESIGN.md §16): a full canonical session image —
// session counters, the live query set, and the merged CloseThrough-
// canonicalized executor checkpoint (its binary layout) — written
// atomically (temp file + rename + directory fsync) as CRC32C-framed
// `snap-<covered_seq>.fws`. A snapshot covering changelog sequence S
// makes every record with seq < S redundant, which is the truncation
// invariant: after a snapshot succeeds, those segments are deleted.
//
// Validity is all-or-nothing: every frame must CRC-verify AND the
// terminator kSnapEnd frame must be present. Anything less (torn tail,
// bit flip, missing terminator) marks the file invalid, and recovery
// falls back to the previous snapshot plus a longer changelog replay —
// which is why snapshots only ever truncate the changelog *they* cover,
// never their predecessors' files before the new file is durable.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace fw {
namespace durability {

inline constexpr uint8_t kSnapMeta = 1;
inline constexpr uint8_t kSnapQuery = 2;
inline constexpr uint8_t kSnapCheckpoint = 3;
inline constexpr uint8_t kSnapEnd = 4;

inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// The session-lifetime tallies: StreamSession keeps them in one of these,
/// a snapshot carries it whole, and Recover restores it whole (replay
/// then advances it naturally). A watermark of kNoWatermark means none
/// yet.
inline constexpr TimeT kNoWatermark = std::numeric_limits<TimeT>::min();
struct SessionCounters {
  /// Next QueryId to assign.
  uint64_t next_id = 1;
  /// Newest timestamp admitted; strict sessions reject events behind it.
  TimeT watermark = kNoWatermark;
  uint64_t events_pushed = 0;
  /// Events pushed while no query was live.
  uint64_t events_dropped = 0;
  int64_t replans = 0;
  int64_t drift_replans = 0;
  uint64_t resize_count = 0;
  /// Ops of operators dropped by past replans (their counters left the
  /// executor with them).
  uint64_t retired_ops = 0;
  /// Reorder-stage accounting of pipelines retired by idle periods and
  /// crossovers (live replans carry theirs through the checkpoint).
  uint64_t retired_late = 0;
  uint64_t retired_reorder_peak = 0;
  /// Window-close / finalize tallies of operators retired by replans and
  /// idle periods (the executor banks its own across Resize).
  uint64_t retired_closes_total = 0;
  uint64_t retired_finalizes_total = 0;
  /// Event-time watermark of the pipeline an idle period retired.
  TimeT retired_watermark = kNoWatermark;
};

/// Everything a recovered session restores outside the executor
/// checkpoint: the session counters, and the options fingerprint (which
/// must match at Recover).
struct SnapshotMeta : SessionCounters {
  uint32_t format_version = kSnapshotFormatVersion;
  /// Changelog records with seq < covered_seq are covered (redundant).
  uint64_t covered_seq = 0;
  /// events_pushed at snapshot time — the stream position the snapshot
  /// captures (RecoveryInfo::snapshot_events).
  uint64_t covered_events = 0;
  /// Options fingerprint: recovery refuses a mismatch loudly (a changed
  /// key space or lateness bound would silently change results).
  uint32_t num_keys = 1;
  int64_t max_delay = 0;
  uint8_t late_policy = 0;
  uint8_t finished = 0;
  /// The η the live plan was costed with. Recovery re-optimizes at this
  /// rate *before* re-adding queries, so the deterministic optimizer
  /// reproduces the checkpointed plan structure exactly.
  double planned_eta = 1.0;
};

struct SnapshotQuery {
  uint64_t id = 0;
  StreamQuery query;
};

struct SnapshotContents {
  SnapshotMeta meta;
  /// Live queries in plan (insertion) order.
  std::vector<SnapshotQuery> queries;
  /// ExecutorCheckpoint::Serialize bytes (binary layout); meaningful only
  /// when has_checkpoint — an idle session has no executor state.
  std::string checkpoint;
  bool has_checkpoint = false;
};

/// The steps of a snapshot publish, in order. The background writer
/// (durability/manager.h) passes them all; WriteSnapshotFile covers
/// kTempPartial through kRenamed.
enum class SnapshotStage : uint8_t {
  kRolled = 0,       // After the changelog roll, before the temp file opens.
  kTempPartial = 1,  // The temp file holds only its meta frame.
  kTempSynced = 2,   // Temp file written and fsynced, not yet renamed.
  kRenamed = 3,      // Renamed into place, directory not yet fsynced.
  kPublished = 4,    // Directory fsynced, truncation not started.
  kTruncating = 5,   // After each truncation unlink.
};
inline constexpr int kNumSnapshotStages = 6;

/// Writes `contents` to dir/snap-<covered_seq>.fws via temp + rename +
/// directory fsync. Never visible half-written. When `proceed` is given,
/// it is asked at each stage the write reaches, and false stops the
/// write there with an Internal error (the manager's kill seam).
Status WriteSnapshotFile(
    const std::string& dir, const SnapshotContents& contents,
    const std::function<bool(SnapshotStage)>& proceed = nullptr);

struct LoadedSnapshot {
  bool found = false;
  SnapshotContents contents;
  /// File the state came from (empty when none found).
  std::string path;
  /// Newer snapshots that failed validation and were skipped.
  int skipped = 0;
};

/// Finds the newest *valid* snapshot in `dir`. Invalid newer files are
/// counted in `skipped` and ignored; found == false when no valid
/// snapshot exists (recovery then replays the changelog from seq 0).
Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir);

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_SNAPSHOT_H_
