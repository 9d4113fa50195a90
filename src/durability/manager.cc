#include "durability/manager.h"

#include <utility>

#include "common/clock.h"
#include "durability/framed_io.h"

namespace fw {
namespace durability {

namespace {

std::function<bool(SnapshotStage)>& KillHook() {
  static std::function<bool(SnapshotStage)> hook;
  return hook;
}

/// Deletes every file a snapshot covering `covered_seq` makes redundant:
/// changelog segments and snapshots below it, and temp files a kill
/// left behind mid-write. Returns how many could not be deleted.
/// Best-effort, but counted: ReadChangelog skips segments that fall
/// entirely below the snapshot's coverage (torn or not), so a leftover
/// costs disk, never recoverability — truncate_failures flags the leak.
uint64_t Truncate(const std::string& dir, uint64_t covered_seq,
                  const std::function<bool(SnapshotStage)>& proceed) {
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return 1;
  uint64_t failures = 0;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    const bool covered = (ParseSegmentFileName(name, &seq) ||
                          ParseSnapshotFileName(name, &seq) ||
                          ParseSnapshotTempFileName(name, &seq)) &&
                         seq < covered_seq;
    if (!covered) continue;
    if (!RemoveFile(dir + "/" + name).ok()) {
      ++failures;
    } else if (proceed && !proceed(SnapshotStage::kTruncating)) {
      break;
    }
  }
  return failures;
}

}  // namespace

void SetSnapshotKillHookForTesting(std::function<bool(SnapshotStage)> hook) {
  KillHook() = std::move(hook);
}

DurabilityManager::DurabilityManager(const DurabilityOptions& options,
                                     telemetry::MetricsRegistry* metrics)
    : options_(options),
      wal_records_counter_(metrics->GetCounter("durability.wal_records")),
      wal_bytes_counter_(metrics->GetCounter("durability.wal_bytes")),
      fsyncs_counter_(metrics->GetCounter("durability.wal_fsyncs")),
      snapshots_counter_(metrics->GetCounter("durability.snapshots")),
      truncate_failures_counter_(
          metrics->GetCounter("durability.truncate_failures")),
      fsync_hist_(metrics->GetHistogram("durability.wal_fsync_ns")),
      stall_hist_(metrics->GetHistogram("durability.snapshot_stall_ns")),
      write_hist_(metrics->GetHistogram("durability.snapshot_write_ns")) {}

DurabilityManager::~DurabilityManager() {
  if (writer_.joinable()) writer_.join();
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::CreateFresh(
    const DurabilityOptions& options, telemetry::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability enabled without a dir");
  }
  FW_RETURN_IF_ERROR(EnsureDir(options.dir));
  Result<std::vector<std::string>> names = ListDir(options.dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq) ||
        ParseSnapshotFileName(name, &seq)) {
      return Status::AlreadyExists(
          "durability dir '" + options.dir + "' already holds " + name +
          "; recover it with StreamSession::Recover instead of starting "
          "fresh over it");
    }
  }
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, metrics));
  FW_RETURN_IF_ERROR(manager->wal_.Open(options.dir, 0));
  return manager;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Attach(
    const DurabilityOptions& options, uint64_t next_seq,
    telemetry::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability enabled without a dir");
  }
  FW_RETURN_IF_ERROR(EnsureDir(options.dir));
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, metrics));
  FW_RETURN_IF_ERROR(manager->wal_.Open(options.dir, next_seq));
  return manager;
}

Status DurabilityManager::AppendRecord(uint8_t type,
                                       const std::string& payload,
                                       uint64_t events_in_record) {
  const uint64_t before = wal_.bytes_written();
  FW_RETURN_IF_ERROR(wal_.Append(type, payload));
  unsynced_ = true;
  ++counters_.wal_records;
  counters_.wal_bytes += wal_.bytes_written() - before;
  wal_records_counter_->Increment(0);
  wal_bytes_counter_->Add(0, wal_.bytes_written() - before);
  events_since_snapshot_ += events_in_record;

  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      return Status::OK();
    case FsyncPolicy::kEveryBatch:
      return SyncNow();
    case FsyncPolicy::kInterval:
      events_since_sync_ += events_in_record;
      // Churn records sync immediately (events_in_record == 0 marks
      // them): they are rare, and an unsynced subscription change is a
      // worse loss than an unsynced batch.
      if (events_in_record == 0 ||
          events_since_sync_ >= options_.fsync_interval_events) {
        return SyncNow();
      }
      return Status::OK();
  }
  return Status::Internal("unreachable fsync policy");
}

Status DurabilityManager::SyncNow() {
  MonotonicTimer timer;
  FW_RETURN_IF_ERROR(wal_.Sync());
  fsync_hist_->Record(0, timer.ElapsedNanos());
  ++counters_.wal_fsyncs;
  fsyncs_counter_->Increment(0);
  events_since_sync_ = 0;
  unsynced_ = false;
  return Status::OK();
}

Status DurabilityManager::AppendEvents(const EventColumns& columns) {
  return AppendRecord(kWalEvents, EncodeEventsPayload(columns),
                      columns.size());
}

Status DurabilityManager::AppendAddQuery(uint64_t id,
                                         const StreamQuery& query) {
  return AppendRecord(kWalAddQuery, EncodeQueryPayload(id, query), 0);
}

Status DurabilityManager::AppendRemoveQuery(uint64_t id) {
  return AppendRecord(kWalRemoveQuery, EncodeRemoveQueryPayload(id), 0);
}

bool DurabilityManager::SnapshotDue() const {
  return options_.snapshot_interval_events > 0 &&
         events_since_snapshot_ >= options_.snapshot_interval_events;
}

Status DurabilityManager::BeginSnapshot(
    SnapshotContents contents, std::optional<ExecutorCheckpoint> checkpoint,
    uint64_t started_ns) {
  FW_RETURN_IF_ERROR(JoinSnapshot());
  // The snapshot covers everything appended so far: it is taken between
  // records, after the batch that made it due was both logged and
  // applied.
  contents.meta.covered_seq = wal_.next_seq();
  // Roll a fresh segment (base == covered_seq) before the snapshot is
  // published: the roll demotes the closing segment, and a demoted
  // segment must never be tearable. The fsync rules out a host crash
  // tearing it; a process kill cannot, because the roll happens between
  // whole records.
  if (unsynced_) FW_RETURN_IF_ERROR(SyncNow());
  FW_RETURN_IF_ERROR(wal_.Roll());
  events_since_snapshot_ = 0;

  job_ = std::make_unique<SnapshotJob>();
  job_->dir = options_.dir;
  job_->contents = std::move(contents);
  job_->checkpoint = std::move(checkpoint);
  writer_ = std::thread(&DurabilityManager::RunWriter, job_.get());
  stall_hist_->Record(0, MonotonicNanos() - started_ns);
  return Status::OK();
}

void DurabilityManager::RunWriter(SnapshotJob* job) {
  const uint64_t started_ns = MonotonicNanos();
  bool killed = false;
  const auto proceed = [&killed](SnapshotStage stage) {
    killed = KillHook() && KillHook()(stage);
    return !killed;
  };
  if (proceed(SnapshotStage::kRolled)) {
    if (job->checkpoint) {
      job->contents.checkpoint = job->checkpoint->Serialize();
      job->contents.has_checkpoint = true;
    }
    job->status = WriteSnapshotFile(job->dir, job->contents, proceed);
    // Truncation only once the snapshot is durable (the §16 invariant).
    if (job->status.ok() && proceed(SnapshotStage::kPublished)) {
      job->truncate_failures =
          Truncate(job->dir, job->contents.meta.covered_seq, proceed);
    }
  }
  job->write_ns = MonotonicNanos() - started_ns;
  if (killed) {
    // Like a dead process's writer, a killed one never reports done: only
    // a join observes it, so where the session fail-stops does not depend
    // on thread timing.
    job->status = Status::Internal("snapshot writer killed by the test hook");
    return;
  }
  job->done.store(true);
}

void DurabilityManager::FoldWriter() {
  writer_.join();
  write_hist_->Record(0, job_->write_ns);
  if (job_->status.ok()) {
    ++counters_.snapshots_written;
    snapshots_counter_->Increment(0);
    counters_.truncate_failures += job_->truncate_failures;
    truncate_failures_counter_->Add(0, job_->truncate_failures);
  } else if (writer_status_.ok()) {
    writer_status_ = job_->status;
  }
  job_.reset();
}

Status DurabilityManager::JoinSnapshot() {
  if (writer_.joinable()) FoldWriter();
  return writer_status_;
}

Status DurabilityManager::ReapSnapshot() {
  if (writer_.joinable() && job_->done.load()) {
    FoldWriter();
  }
  return writer_status_;
}

Status DurabilityManager::WriteSnapshot(SnapshotContents contents) {
  FW_RETURN_IF_ERROR(BeginSnapshot(std::move(contents), std::nullopt,
                                   MonotonicNanos()));
  return JoinSnapshot();
}

void DurabilityManager::NoteSnapshotPublished(uint64_t covered_seq) {
  ++counters_.snapshots_written;
  snapshots_counter_->Increment(0);
  events_since_snapshot_ = 0;
  const uint64_t failures = Truncate(options_.dir, covered_seq, nullptr);
  counters_.truncate_failures += failures;
  truncate_failures_counter_->Add(0, failures);
}

}  // namespace durability
}  // namespace fw
