// Durability cost and recovery speed (DESIGN.md §16). Two panels:
//
//  * Ingest throughput vs fsync policy — the same single-query stream
//    runs without durability (baseline), then with the changelog under
//    each FsyncPolicy, and once more under kInterval with a snapshot
//    every events/8 (interval_snapshotted), so several snapshots go
//    through the background writer at any --events. Every durable run
//    must deliver the bitwise-identical result multiset
//    (ResultFingerprint) — a throughput number bought by losing results
//    is not a benchmark result. Each row reports wal_fsyncs and, beside
//    it, fsync_wait_ns: the summed time the ingest thread waited for the
//    background group commit in flight (durability.fsync_wait_ns).
//
//  * Recovery time vs changelog depth — sessions killed mid-stream
//    (destructor, no Finish) leave changelogs of increasing replay
//    depth; StreamSession::Recover is timed end to end (snapshot load +
//    suffix replay + the covering snapshot it publishes). A final row
//    recovers a session snapshotted every events/8, showing the bounded
//    replay the snapshot cadence buys.
//
//  * Per-record append cost — 1M single-event AppendEvents calls
//    through one DurabilityManager under FsyncPolicy::kNone, the thread
//    pinned to one core, best of 5 rounds (BM_WalAppend/single_event,
//    ns_per_event). This is the per-event Push path's changelog cost:
//    payload encoding, CRC, framing and the write system call.
//
// Output is google-benchmark-compatible JSON ({"benchmarks": [...]}
// with items_per_second), so scripts/perf_smoke.py --check gates its
// shape in CI. Scale with --events/--keys or FW_EVENTS_1M; --batch=N
// ingests through PushColumns in N-event batches.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "durability/framed_io.h"
#include "durability/manager.h"
#include "session/session.h"

namespace fw {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/fw_bench_durability_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return dir;
}

void RemoveTree(const std::string& dir) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)durability::RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

const char* PolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "fsync_none";
    case FsyncPolicy::kInterval: return "fsync_interval";
    case FsyncPolicy::kEveryBatch: return "fsync_every_batch";
  }
  return "?";
}

StreamSession::Options BaseOptions(const bench::BenchArgs& args) {
  StreamSession::Options options;
  options.num_keys = args.keys;
  options.num_shards = args.shards.empty() ? 1 : args.shards.front();
  return options;
}

Result<QueryId> AddBenchQuery(StreamSession& session, const std::string& agg,
                              bench::ResultFingerprint* totals) {
  StreamQuery query;
  query.source = "bench";
  query.agg = Agg(agg);
  query.value_column = "v";
  query.per_key = true;
  query.key_column = "k";
  (void)query.windows.Add(Window(20, 20));
  (void)query.windows.Add(Window(30, 30));
  (void)query.windows.Add(Window(40, 40));
  return session.AddQuery(
      query, [totals](const WindowResult& r) { totals->Fold(r); });
}

struct IngestRow {
  std::string name;
  double events_per_sec = 0.0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t fsync_wait_ns = 0;
  uint64_t snapshots = 0;
  bench::ResultFingerprint totals;
};

/// `snapshot_interval` 0 keeps the default periodic-snapshot interval.
int RunIngest(const bench::BenchArgs& args, const std::vector<Event>& events,
              const std::vector<EventColumns>& chunks, bool durable,
              FsyncPolicy policy, uint64_t snapshot_interval,
              IngestRow* out) {
  std::string dir;
  StreamSession::Options options = BaseOptions(args);
  if (durable) {
    dir = MakeTempDir();
    options.durability.enabled = true;
    options.durability.dir = dir;
    options.durability.fsync_policy = policy;
    out->name = std::string("BM_DurableIngest/") + PolicyName(policy);
    if (snapshot_interval > 0) {
      options.durability.snapshot_interval_events = snapshot_interval;
      out->name = "BM_DurableIngest/interval_snapshotted";
    }
  } else {
    out->name = "BM_DurableIngest/baseline";
  }
  int rc = 0;
  {
    StreamSession session(options);
    Result<QueryId> id = AddBenchQuery(session, args.agg, &out->totals);
    if (!id.ok()) {
      std::fprintf(stderr, "AddQuery: %s\n", id.status().ToString().c_str());
      rc = 1;
    }
    if (rc == 0) {
      MonotonicTimer timer;
      Status status = bench::IngestStream(session, events, chunks);
      if (status.ok()) status = session.Finish();
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", out->name.c_str(),
                     status.ToString().c_str());
        rc = 1;
      } else {
        const double seconds = timer.ElapsedSeconds();
        out->events_per_sec =
            seconds > 0.0 ? static_cast<double>(events.size()) / seconds : 0.0;
        const StreamSession::SessionStats stats = session.Stats();
        out->wal_records = stats.wal_records;
        out->wal_bytes = stats.wal_bytes;
        out->wal_fsyncs = stats.wal_fsyncs;
        out->snapshots = stats.snapshots_written;
        const telemetry::MetricsSnapshot telemetry =
            session.Metrics().telemetry;
        const auto wait =
            telemetry.histograms.find("durability.fsync_wait_ns");
        if (wait != telemetry.histograms.end()) {
          out->fsync_wait_ns = wait->second.sum;
        }
      }
    }
  }
  if (!dir.empty()) RemoveTree(dir);
  return rc;
}

struct RecoveryRow {
  std::string name;
  double events_per_sec = 0.0;  // Durable events recovered per second.
  double seconds = 0.0;
  uint64_t durable_events = 0;
  uint64_t replayed_records = 0;
};

/// Fills a changelog by killing a durable session after `depth` events
/// (no Finish — the destructor is the crash), then times Recover.
/// `snapshot_interval` 0 leaves the whole stream as replay depth.
int RunRecovery(const bench::BenchArgs& args, const std::vector<Event>& events,
                size_t depth, uint64_t snapshot_interval,
                const std::string& name, RecoveryRow* out) {
  out->name = name;
  const std::string dir = MakeTempDir();
  int rc = 0;
  {
    StreamSession::Options options = BaseOptions(args);
    options.durability.enabled = true;
    options.durability.dir = dir;
    options.durability.fsync_policy = FsyncPolicy::kNone;
    options.durability.snapshot_interval_events = snapshot_interval;
    StreamSession session(options);
    bench::ResultFingerprint sink;
    Result<QueryId> id = AddBenchQuery(session, args.agg, &sink);
    if (!id.ok()) {
      std::fprintf(stderr, "AddQuery: %s\n", id.status().ToString().c_str());
      rc = 1;
    }
    for (size_t i = 0; rc == 0 && i < depth && i < events.size(); ++i) {
      Status status = session.Push(events[i]);
      if (!status.ok()) {
        std::fprintf(stderr, "Push: %s\n", status.ToString().c_str());
        rc = 1;
      }
    }
    // Killed here: destructor without Finish, like a crashed process.
  }
  if (rc == 0) {
    StreamSession::Options options = BaseOptions(args);
    MonotonicTimer timer;
    Result<StreamSession::RecoveryInfo> recovered =
        StreamSession::Recover(dir, options);
    if (!recovered.ok()) {
      std::fprintf(stderr, "Recover(%s): %s\n", name.c_str(),
                   recovered.status().ToString().c_str());
      rc = 1;
    } else {
      out->seconds = timer.ElapsedSeconds();
      out->durable_events = recovered->durable_events;
      out->replayed_records = recovered->replayed_records;
      out->events_per_sec =
          out->seconds > 0.0
              ? static_cast<double>(out->durable_events) / out->seconds
              : 0.0;
      if (out->durable_events != depth) {
        std::fprintf(stderr, "%s: recovered %llu events, expected %zu\n",
                     name.c_str(),
                     static_cast<unsigned long long>(out->durable_events),
                     depth);
        rc = 1;
      }
    }
  }
  RemoveTree(dir);
  return rc;
}

struct AppendRow {
  double ns_per_event = 0.0;
  uint64_t wal_bytes = 0;
};

/// The append probe (see the file comment). Every round appends into a
/// fresh directory, deleted afterwards. The calling thread is pinned to
/// the core it runs on for the probe and unpinned after it.
int RunAppendProbe(const std::vector<Event>& events, AppendRow* out) {
  constexpr size_t kCalls = 1'000'000;
  constexpr int kRounds = 5;
  cpu_set_t saved;
  const bool pinned = ::sched_getaffinity(0, sizeof(saved), &saved) == 0;
  if (pinned) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(std::max(::sched_getcpu(), 0), &one);
    (void)::sched_setaffinity(0, sizeof(one), &one);
  }
  int rc = 0;
  double best = std::numeric_limits<double>::infinity();
  EventColumns single;
  for (int round = 0; rc == 0 && round < kRounds; ++round) {
    const std::string dir = MakeTempDir();
    {
      telemetry::MetricsRegistry registry;
      DurabilityOptions options;
      options.enabled = true;
      options.dir = dir;
      options.fsync_policy = FsyncPolicy::kNone;
      options.snapshot_interval_events = 0;
      Result<std::unique_ptr<durability::DurabilityManager>> manager =
          durability::DurabilityManager::CreateFresh(options, &registry);
      Status status = manager.status();
      MonotonicTimer timer;
      for (size_t i = 0; status.ok() && i < kCalls; ++i) {
        single.clear();
        single.Append(events[i % events.size()]);
        status = (*manager)->AppendEvents(single);
      }
      const double ns = static_cast<double>(timer.ElapsedNanos());
      if (!status.ok()) {
        std::fprintf(stderr, "append probe: %s\n",
                     status.ToString().c_str());
        rc = 1;
      } else {
        best = std::min(best, ns / static_cast<double>(kCalls));
        out->wal_bytes = (*manager)->counters().wal_bytes;
      }
    }
    RemoveTree(dir);
  }
  if (pinned) (void)::sched_setaffinity(0, sizeof(saved), &saved);
  out->ns_per_event = best;
  return rc;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, EventCountFromEnv("FW_EVENTS_1M", 300'000));
  const std::vector<Event> events =
      GenerateSyntheticStream(args.events, args.keys, kSyntheticSeed);
  std::vector<EventColumns> chunks;
  if (args.batch > 0) chunks = SplitIntoColumns(events, args.batch);

  // Several periodic snapshots at any stream length.
  const uint64_t snapshot_interval =
      std::max<uint64_t>(1, events.size() / 8);

  // --- Panel 1: ingest throughput vs fsync policy. ---
  std::vector<IngestRow> ingest(5);
  if (RunIngest(args, events, chunks, false, FsyncPolicy::kNone, 0,
                &ingest[0]) ||
      RunIngest(args, events, chunks, true, FsyncPolicy::kNone, 0,
                &ingest[1]) ||
      RunIngest(args, events, chunks, true, FsyncPolicy::kInterval, 0,
                &ingest[2]) ||
      RunIngest(args, events, chunks, true, FsyncPolicy::kEveryBatch, 0,
                &ingest[3]) ||
      RunIngest(args, events, chunks, true, FsyncPolicy::kInterval,
                snapshot_interval, &ingest[4])) {
    return 1;
  }
  for (size_t i = 1; i < ingest.size(); ++i) {
    // Exactness first: durability must be invisible in the output.
    if (!ingest[i].totals.Matches(ingest[0].totals)) {
      std::fprintf(stderr,
                   "exactness violated: %s delivered %llu results "
                   "(fingerprint %016llx) vs baseline %llu (%016llx)\n",
                   ingest[i].name.c_str(),
                   static_cast<unsigned long long>(ingest[i].totals.results),
                   static_cast<unsigned long long>(
                       ingest[i].totals.fingerprint),
                   static_cast<unsigned long long>(ingest[0].totals.results),
                   static_cast<unsigned long long>(
                       ingest[0].totals.fingerprint));
      return 1;
    }
  }

  // --- Panel 2: recovery time vs changelog depth. ---
  std::vector<RecoveryRow> recovery(4);
  const size_t full = events.size();
  if (RunRecovery(args, events, full / 4, 0, "BM_Recovery/depth_quarter",
                  &recovery[0]) ||
      RunRecovery(args, events, full / 2, 0, "BM_Recovery/depth_half",
                  &recovery[1]) ||
      RunRecovery(args, events, full, 0, "BM_Recovery/depth_full",
                  &recovery[2]) ||
      RunRecovery(args, events, full, snapshot_interval,
                  "BM_Recovery/depth_full_snapshotted", &recovery[3])) {
    return 1;
  }

  // --- Panel 3: per-record append cost. ---
  AppendRow append;
  if (RunAppendProbe(events, &append)) return 1;

  std::printf(
      "{\"context\":{\"executable\":\"bench_durability\",\"events\":%zu,"
      "\"keys\":%u,\"shards\":%u,\"batch\":%zu,\"agg\":\"%s\"},"
      "\"benchmarks\":[",
      events.size(), args.keys, BaseOptions(args).num_shards, args.batch,
      args.agg.c_str());
  bool first = true;
  for (const IngestRow& row : ingest) {
    std::printf(
        "%s{\"name\":\"%s\",\"run_type\":\"iteration\",\"iterations\":1,"
        "\"items_per_second\":%.1f,\"wal_records\":%llu,"
        "\"wal_bytes\":%llu,\"wal_fsyncs\":%llu,\"fsync_wait_ns\":%llu,"
        "\"snapshots\":%llu}",
        first ? "" : ",", row.name.c_str(), row.events_per_sec,
        static_cast<unsigned long long>(row.wal_records),
        static_cast<unsigned long long>(row.wal_bytes),
        static_cast<unsigned long long>(row.wal_fsyncs),
        static_cast<unsigned long long>(row.fsync_wait_ns),
        static_cast<unsigned long long>(row.snapshots));
    first = false;
  }
  for (const RecoveryRow& row : recovery) {
    std::printf(
        ",{\"name\":\"%s\",\"run_type\":\"iteration\",\"iterations\":1,"
        "\"items_per_second\":%.1f,\"real_time\":%.6f,"
        "\"time_unit\":\"s\",\"durable_events\":%llu,"
        "\"replayed_records\":%llu}",
        row.name.c_str(), row.events_per_sec, row.seconds,
        static_cast<unsigned long long>(row.durable_events),
        static_cast<unsigned long long>(row.replayed_records));
  }
  std::printf(
      ",{\"name\":\"BM_WalAppend/single_event\",\"run_type\":"
      "\"iteration\",\"iterations\":1,\"items_per_second\":%.1f,"
      "\"ns_per_event\":%.1f,\"wal_bytes\":%llu}",
      1e9 / append.ns_per_event, append.ns_per_event,
      static_cast<unsigned long long>(append.wal_bytes));
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace fw

int main(int argc, char** argv) { return fw::Run(argc, argv); }
