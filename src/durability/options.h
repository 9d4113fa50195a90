#ifndef FW_DURABILITY_OPTIONS_H_
#define FW_DURABILITY_OPTIONS_H_

#include <cstdint>
#include <string>

namespace fw {

/// When appended changelog bytes reach stable storage (DESIGN.md §16).
/// The policy trades ingest throughput against the amount of recently
/// admitted data a host crash (power loss, kernel panic) can lose; a
/// mere process kill loses nothing under any policy, because the bytes
/// are already in the page cache.
enum class FsyncPolicy : uint8_t {
  /// Never fsync the changelog; the OS flushes on its own schedule.
  kNone = 0,
  /// Group commit: once at least fsync_interval_events admitted events
  /// have accumulated since the previous commit, the append that
  /// completes the group hands the fsync to a background syncer thread
  /// and returns at once. At most one commit is in flight: the append
  /// that completes the next group waits for it first. A host crash may
  /// therefore lose fewer than 2 × (fsync_interval_events + one batch)
  /// admitted events — the group whose commit is in flight plus the one
  /// after it. A caller who needs the bound of a synchronous commit,
  /// fewer than fsync_interval_events + one batch, halves
  /// fsync_interval_events (the bound becomes fsync_interval_events +
  /// two batches). Churn records still sync before AddQuery/RemoveQuery
  /// return, and everything is durable when Finish returns.
  kInterval = 1,
  /// fsync after every appended batch (and every churn record).
  kEveryBatch = 2,
};

/// Opt-in durability for a StreamSession (session.h Options::durability):
/// admitted event batches and query churn append to a segmented,
/// CRC32C-framed write-ahead changelog under `dir`, and periodic
/// canonical snapshots bound replay. StreamSession::Recover(dir, ...)
/// rebuilds a bitwise-identical session from those files.
struct DurabilityOptions {
  bool enabled = false;
  /// Directory holding the changelog segments (wal-<seq>.log) and
  /// snapshots (snap-<seq>.fws). Created if missing. A fresh session
  /// refuses a directory that already holds a changelog — recover it
  /// with StreamSession::Recover instead of silently clobbering it.
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  /// Group-commit window for FsyncPolicy::kInterval, in admitted events.
  uint64_t fsync_interval_events = 4096;
  /// Admitted events between snapshots; each snapshot truncates every
  /// changelog segment it covers. 0 disables periodic snapshots (the
  /// changelog grows until Finish or Recover writes one).
  uint64_t snapshot_interval_events = 65536;
};

}  // namespace fw

#endif  // FW_DURABILITY_OPTIONS_H_
