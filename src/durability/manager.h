#ifndef FW_DURABILITY_MANAGER_H_
#define FW_DURABILITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/status.h"
#include "durability/options.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "exec/checkpoint.h"
#include "exec/columns.h"
#include "query/query.h"
#include "telemetry/metrics.h"

namespace fw {
namespace durability {

/// Test-only seam for the kill-anywhere fuzz
/// (tests/crash_recovery_fuzz_test.cc): the background snapshot writer
/// asks `hook` at every SnapshotStage it reaches, and a true answer
/// stops it right there, leaving the files exactly as a process kill at
/// that instant would. A stopped writer, like a dead process, never
/// reports completion to ReapSnapshot; only a join observes it (as an
/// Internal error). Null (the default) removes the hook. Install it
/// only while no writer runs. Every snapshot goes through the writer —
/// periodic, Finish's and Recover's — so the hook sees them all.
void SetSnapshotKillHookForTesting(std::function<bool(SnapshotStage)> hook);

/// Owns a session's durability files (DESIGN.md §16): appends admitted
/// batches and churn to the write-ahead changelog under the configured
/// fsync policy, decides when a snapshot is due, and — when the session
/// hands one over — rolls the changelog at the snapshot's coverage and
/// lets one background writer publish it and truncate every changelog
/// segment it covers.
///
/// Driven from the session's caller thread only (like all session
/// state); holds no locks. At most one writer is in flight, and it
/// touches only its own job: inputs moved in before it starts, outcome
/// read back after it finishes. Fail-stop: the session latches the
/// first append/snapshot error and refuses further ingest, so the
/// on-disk log never silently diverges from the in-memory state.
class DurabilityManager {
 public:
  /// Joins an in-flight writer.
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// For a brand-new session: creates `options.dir` if missing and opens
  /// segment wal-0. Refuses a directory that already holds changelog
  /// segments or snapshots — that state belongs to a previous session;
  /// use StreamSession::Recover (or point the session elsewhere).
  static Result<std::unique_ptr<DurabilityManager>> CreateFresh(
      const DurabilityOptions& options, telemetry::MetricsRegistry* metrics);

  /// For a recovered session: resumes logging at `next_seq`. When the
  /// crashed run's newest segment (`newest`, as ReadChangelog reported
  /// it) ends exactly there, Attach continues that segment: reopened
  /// without truncation, cut back to its last whole record (dropping a
  /// torn tail), and marked unsynced — the replayed records may sit only
  /// in the page cache, so the next snapshot's roll fsyncs it before
  /// demoting it. Otherwise it opens a fresh segment at `next_seq`.
  /// Existing files stay until the recovery snapshot truncates them.
  static Result<std::unique_ptr<DurabilityManager>> Attach(
      const DurabilityOptions& options, uint64_t next_seq,
      const std::optional<SegmentTail>& newest,
      telemetry::MetricsRegistry* metrics);

  /// Appends one admitted batch (write-ahead: call before applying the
  /// events), then applies the fsync policy.
  Status AppendEvents(const EventColumns& columns);
  /// Churn records. Always synced under kInterval too — churn is rare
  /// and losing a query subscription is worse than losing a batch.
  Status AppendAddQuery(uint64_t id, const StreamQuery& query);
  Status AppendRemoveQuery(uint64_t id);

  /// True once snapshot_interval_events admitted events accumulated
  /// since the last snapshot (never under interval 0).
  bool SnapshotDue() const;

  /// Starts a snapshot of everything appended so far (covered_seq is
  /// filled in here). On the caller thread: joins the previous writer
  /// (returning its failure), fsyncs the closing segment unless nothing
  /// was appended since the last sync, and rolls a fresh segment at
  /// covered_seq (skipped when the open segment holds no record: it
  /// already starts there). One background writer then serializes
  /// `checkpoint` (when given) into the contents, writes and fsyncs the
  /// temp file, renames it, fsyncs the directory, and only then deletes
  /// the covered segments, older snapshots and stale temp files.
  /// Deletion failures are non-fatal (counted in truncate_failures) —
  /// ReadChangelog skips segments a snapshot fully covers, so a leftover
  /// only costs disk, never correctness. `started_ns` is the caller's
  /// MonotonicNanos() stamp from before it took the snapshot, so
  /// durability.snapshot_stall_ns covers the take as well.
  Status BeginSnapshot(SnapshotContents contents,
                       std::optional<ExecutorCheckpoint> checkpoint,
                       uint64_t started_ns);
  /// Waits for the in-flight writer, if any, and folds its outcome into
  /// the counters. Returns the first writer failure (sticky), else OK.
  Status JoinSnapshot();
  /// JoinSnapshot without the wait: folds the writer only once it has
  /// finished — one atomic load while it runs.
  Status ReapSnapshot();
  /// BeginSnapshot + JoinSnapshot: a synchronous snapshot of `contents`
  /// as given (its checkpoint already serialized, or none).
  Status WriteSnapshot(SnapshotContents contents);

  /// Snapshot tallies count writes that have been joined or reaped.
  struct Counters {
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_fsyncs = 0;
    uint64_t snapshots_written = 0;
    /// Covered files truncation could not delete (leaked disk, flagged).
    uint64_t truncate_failures = 0;
  };
  const Counters& counters() const { return counters_; }
  uint64_t next_seq() const { return wal_.next_seq(); }
  const std::string& dir() const { return options_.dir; }

 private:
  DurabilityManager(const DurabilityOptions& options,
                    telemetry::MetricsRegistry* metrics);

  /// One background snapshot write. The caller thread moves the inputs
  /// in before the writer starts and reads the outcome only after it
  /// finished (`done`, or the join).
  struct SnapshotJob {
    std::string dir;
    SnapshotContents contents;
    std::optional<ExecutorCheckpoint> checkpoint;
    Status status;
    uint64_t truncate_failures = 0;
    uint64_t write_ns = 0;
    std::atomic<bool> done{false};
  };
  static void RunWriter(SnapshotJob* job);
  /// Joins the writer thread and folds its job into the counters.
  void FoldWriter();

  Status AppendRecord(uint8_t type, const std::string& payload,
                      uint64_t events_in_record);
  Status SyncNow();

  DurabilityOptions options_;
  WalWriter wal_;
  Counters counters_;
  uint64_t events_since_sync_ = 0;
  uint64_t events_since_snapshot_ = 0;
  /// Set by every append, cleared by every fsync: the snapshot roll
  /// syncs the closing segment only when it is set.
  bool unsynced_ = false;

  /// The in-flight writer's job and thread (both empty when none runs),
  /// and the first failure any writer reported.
  std::unique_ptr<SnapshotJob> job_;
  std::thread writer_;
  Status writer_status_;

  telemetry::Counter* const wal_records_counter_;
  telemetry::Counter* const wal_bytes_counter_;
  telemetry::Counter* const fsyncs_counter_;
  telemetry::Counter* const snapshots_counter_;
  telemetry::Counter* const truncate_failures_counter_;
  /// fsync latency distribution ("durability.wal_fsync_ns").
  telemetry::Histogram* const fsync_hist_;
  /// Per snapshot: caller-thread time (take, join wait, segment fsync,
  /// roll) and writer time (serialize, write, fsync, publish, truncate).
  telemetry::Histogram* const stall_hist_;
  telemetry::Histogram* const write_hist_;
};

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_MANAGER_H_
