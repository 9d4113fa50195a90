#ifndef FW_DURABILITY_MANAGER_H_
#define FW_DURABILITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
/// reports completion to Reap; only a join observes it (as an
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
/// state); holds no locks. Two background threads each touch only their
/// own hand-off slot: the snapshot writer its job (inputs moved in
/// before it starts, outcome read back after it finishes), and the
/// syncer its commit (filled before the request counter's release
/// store, outcome read back after the completion counter's acquire
/// load). At most one of each is in flight. Fail-stop: the session
/// latches the first append/fsync/snapshot error and refuses further
/// ingest, so the on-disk log never silently diverges from the
/// in-memory state.
class DurabilityManager {
 public:
  /// Waits for the in-flight commit, stops the syncer and joins an
  /// in-flight writer.
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
  /// events), then applies the fsync policy. Under kInterval the batch
  /// that completes a group hands its commit to the syncer and returns;
  /// it first waits for the previous commit if that is still in flight,
  /// and refuses the batch unlogged if that commit failed.
  Status AppendEvents(const EventColumns& columns);
  /// Churn records. Always synced on the calling thread under kInterval
  /// too — churn is rare and losing a query subscription is worse than
  /// losing a batch.
  Status AppendAddQuery(uint64_t id, const StreamQuery& query);
  Status AppendRemoveQuery(uint64_t id);

  /// True once snapshot_interval_events admitted events accumulated
  /// since the last snapshot (never under interval 0).
  bool SnapshotDue() const;

  /// Starts a snapshot of everything appended so far (covered_seq is
  /// filled in here). On the caller thread: joins the previous writer
  /// and waits for the commit in flight (returning either's failure),
  /// fsyncs the closing segment unless nothing was appended since the
  /// last commit, and rolls a fresh segment at
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
  /// Waits for the in-flight commit and writer, if any, and folds their
  /// outcomes into the counters. Returns the first failure any
  /// background commit or write reported (sticky), else OK.
  Status Settle();
  /// Settle without the waits: folds the commit and the writer only once
  /// each has finished — one atomic load apiece while they run.
  Status Reap();
  /// BeginSnapshot + Settle: a synchronous snapshot of `contents` as
  /// given (its checkpoint already serialized, or none).
  Status WriteSnapshot(SnapshotContents contents);

  /// wal_fsyncs counts completed fsyncs, and the snapshot tallies
  /// written snapshots, once each has been waited for or reaped.
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
  /// Joins the in-flight writer, if any; returns the sticky failure.
  Status JoinWriter();

  /// The syncer's loop: parked on commit_requests_, it runs each
  /// requested commit and publishes it through commit_completions_.
  void RunSyncer();
  /// Hands `sync` to the syncer (started on first use). No commit may be
  /// in flight.
  void RequestCommit(ChangelogSync sync);
  /// Waits for the in-flight commit, if any, and folds it; returns the
  /// sticky failure.
  Status AwaitCommit();
  /// Counts the finished commit, or latches its failure.
  void FoldCommit();

  Status AppendRecord(uint8_t type, std::string_view payload,
                      uint64_t events_in_record);
  /// An fsync on the calling thread (churn, kEveryBatch, pre-roll). No
  /// commit may be in flight.
  Status SyncNow();

  DurabilityOptions options_;
  WalWriter wal_;
  Counters counters_;
  uint64_t events_since_sync_ = 0;
  uint64_t events_since_snapshot_ = 0;
  /// Set by every append, cleared by every fsync or commit hand-off: the
  /// snapshot roll syncs the closing segment only when it is set.
  bool unsynced_ = false;
  /// Reused across AppendEvents calls: each record encodes into it.
  std::string payload_;

  /// The in-flight writer's job and thread (both empty when none runs).
  std::unique_ptr<SnapshotJob> job_;
  std::thread writer_;
  /// The first failure any background commit or snapshot write reported.
  Status background_status_;

  /// The group-commit hand-off slot. The caller writes `sync` and `stop`
  /// only while no commit is in flight, then bumps commit_requests_
  /// (release); the syncer reads them after its acquire, writes `status`,
  /// then bumps commit_completions_ (release), and the caller reads
  /// `status` only after observing that (acquire).
  struct Commit {
    ChangelogSync sync;
    bool stop = false;
    Status status;
  };
  Commit commit_;
  std::atomic<uint32_t> commit_requests_{0};
  std::atomic<uint32_t> commit_completions_{0};
  /// Caller-owned: requests issued so far, and whether the last one is
  /// still to be folded.
  uint32_t commits_requested_ = 0;
  bool commit_in_flight_ = false;

  telemetry::Counter* const wal_records_counter_;
  telemetry::Counter* const wal_bytes_counter_;
  telemetry::Counter* const fsyncs_counter_;
  telemetry::Counter* const snapshots_counter_;
  telemetry::Counter* const truncate_failures_counter_;
  /// fsync latency distribution ("durability.wal_fsync_ns"), recorded
  /// by whichever thread ran the fsync.
  telemetry::Histogram* const fsync_hist_;
  /// Per group commit: how long the caller waited for the previous
  /// commit, 0 when the syncer was idle ("durability.fsync_wait_ns").
  telemetry::Histogram* const fsync_wait_hist_;
  /// Per snapshot: caller-thread time (take, join wait, segment fsync,
  /// roll) and writer time (serialize, write, fsync, publish, truncate).
  telemetry::Histogram* const stall_hist_;
  telemetry::Histogram* const write_hist_;

  /// Started at the first group commit; declared last, after everything
  /// it uses.
  std::thread syncer_;
};

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_MANAGER_H_
