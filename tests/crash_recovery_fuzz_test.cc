// Kill-anywhere crash-recovery fuzzing (DESIGN.md §16): a seeded
// generator drives a durable session through random query churn x bounded
// disorder x mid-stream resizes, kills it at a random admitted-event
// position — optionally tearing trailing bytes off the newest changelog
// segment, the crash-mid-write shape — recovers it (possibly at a
// different shard count), resumes the feed from
// RecoveryInfo::durable_events, and asserts the combined output is
// bitwise identical to an uninterrupted single-shard oracle running the
// same stream and schedule with no durability at all. Re-deliveries in
// the at-least-once replay window must also be bitwise identical to the
// original delivery (the result map asserts on every duplicate insert).
//
// Half the cases also stop a background snapshot write part-way: a
// drawn periodic snapshot's writer halts at a drawn SnapshotStage (from
// right after the changelog roll to between truncation unlinks), when
// the case gets that far. The session then dies at its next join point:
// the next due snapshot, or the kill position, whichever comes first.
// A tier-1 subset also kills the recovery snapshot's writer (a crash
// during recovery) and recovers a second time.
//
// A fixed-seed subset runs in tier-1; scale the search from the
// environment:
//
//   FW_CRASH_SEEDS=500 ./crash_recovery_fuzz_test
//       --gtest_filter=CrashRecoveryFuzz.LongRandomized
//
// Every failure prints a one-line reproduction:
//
//   FW_CRASH_SEED=<seed> ./crash_recovery_fuzz_test
//       --gtest_filter=CrashRecoveryFuzz.ReproSeed

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "durability/framed_io.h"
#include "durability/manager.h"
#include "durability/wal.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

using SessionResults =
    std::map<std::tuple<int, int, TimeT, TimeT, uint32_t>, double>;

// --- Filesystem helpers ----------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/fw_crash_fuzz_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? std::string(dir) : std::string();
}

struct TempDir {
  TempDir() : path(MakeTempDir()) {}
  ~TempDir() {
    if (path.empty()) return;
    Result<std::vector<std::string>> names = durability::ListDir(path);
    if (names.ok()) {
      for (const std::string& name : *names) {
        durability::RemoveFile(path + "/" + name);
      }
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

/// Truncates `drop` bytes off the newest changelog segment — the torn
/// final record a crash mid-append leaves behind. Returns false when
/// there is nothing to tear (empty or absent newest segment).
bool TearNewestSegment(const std::string& dir, size_t drop) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (!names.ok()) return false;
  bool found = false;
  uint64_t newest = 0;
  for (const std::string& name : *names) {
    uint64_t base = 0;
    if (durability::ParseSegmentFileName(name, &base)) {
      if (!found || base > newest) newest = base;
      found = true;
    }
  }
  if (!found) return false;
  const std::string path = dir + "/" + durability::SegmentFileName(newest);
  std::string bytes;
  if (!durability::ReadFileBytes(path, &bytes).ok()) return false;
  if (bytes.empty()) return false;
  // Every frame is at least 9 bytes, so dropping at most 8 tears exactly
  // the final record.
  drop = std::min(drop, bytes.size());
  bytes.resize(bytes.size() - drop);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool wrote = bytes.empty() ||
               std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  wrote = std::fclose(f) == 0 && wrote;
  return wrote;
}

// --- Case generation -------------------------------------------------------

struct CrashOp {
  enum Kind { kAdd, kRemove, kResize };
  size_t at_event = 0;
  Kind kind = kAdd;
  StreamQuery query;       // kAdd.
  int tag = 0;             // kAdd: result-map tag, fixed at generation.
  size_t remove_slot = 0;  // kRemove: index into the live list.
  uint32_t shards = 1;     // kResize.
};

struct CrashCase {
  uint32_t num_keys = 1;
  TimeT max_delay = 0;
  uint32_t initial_shards = 1;
  std::vector<Event> events;
  /// Distinct at_event per op, sorted; ops[0] is the initial AddQuery at
  /// index 0 (so a kill before the first event exercises churn-only and
  /// even empty-changelog recovery).
  std::vector<CrashOp> ops;
  size_t kill_at = 0;        // Events admitted before the kill.
  bool kill_after_ops = false;  // Kill after the ops at kill_at fired.
  size_t tear_bytes = 0;     // 0: no tear; 1..8: torn final record.
  uint32_t recover_shards = 1;
  uint64_t snapshot_interval = 0;
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  bool columnar = false;     // Batch the subject's feed through
                             // PushColumns (the oracle stays scalar).
  /// Stop the writer of the writer_kill_snapshot-th periodic snapshot
  /// at this SnapshotStage (-1: no writer kill).
  int writer_kill_stage = -1;
  int writer_kill_snapshot = 1;
  /// A double crash: stop the first recovery's snapshot writer at this
  /// SnapshotStage and drop that session, then recover again (-1: none).
  /// Never drawn by GenerateCase; RecoverySnapshotKillStagesTier1 sets it.
  int recovery_kill_stage = -1;
};

StreamQuery RandomQuery(Rng& rng, AggFn agg, bool per_key) {
  static constexpr TimeT kRanges[] = {10, 20, 30, 40, 60, 80, 120};
  StreamQuery query;
  query.source = "crash";
  query.agg = agg;
  query.value_column = "v";
  query.per_key = per_key;
  if (per_key) query.key_column = "k";
  const size_t num_windows = rng.Uniform(1, 3);
  while (query.windows.size() < num_windows) {
    const TimeT range = kRanges[rng.Uniform(0, std::size(kRanges) - 1)];
    TimeT slide = range;
    const uint64_t shape = rng.Uniform(0, 2);
    if (shape == 1 && range % 2 == 0) slide = range / 2;
    if (shape == 2 && range % 4 == 0) slide = range / 4;
    Status status = query.windows.Add(Window(range, slide));
    (void)status;  // Duplicate windows are rejected; just redraw.
  }
  return query;
}

CrashCase GenerateCase(uint64_t seed) {
  Rng rng(seed);
  CrashCase c;
  static constexpr uint32_t kKeyChoices[] = {1, 4, 8};
  c.num_keys = kKeyChoices[rng.Uniform(0, std::size(kKeyChoices) - 1)];
  static constexpr TimeT kDelayChoices[] = {0, 0, 16, 48};
  c.max_delay = kDelayChoices[rng.Uniform(0, std::size(kDelayChoices) - 1)];
  c.initial_shards = static_cast<uint32_t>(rng.Uniform(1, 3));
  c.recover_shards = static_cast<uint32_t>(rng.Uniform(1, 4));
  static constexpr uint64_t kSnapChoices[] = {0, 64, 256};
  c.snapshot_interval =
      kSnapChoices[rng.Uniform(0, std::size(kSnapChoices) - 1)];
  c.fsync_policy = static_cast<FsyncPolicy>(rng.Uniform(0, 2));
  c.columnar = rng.Uniform(0, 1) == 1;

  static const char* const kAggPalette[] = {
      "MIN", "MAX", "SUM", "AVG", "STDEV",
      "FIRST", "LAST", "P99", "DISTINCT_COUNT"};
  const AggFn agg =
      Agg(kAggPalette[rng.Uniform(0, std::size(kAggPalette) - 1)]);
  const bool per_key = c.num_keys > 1;

  const size_t num_events = rng.Uniform(800, 2000);
  c.events = GenerateSyntheticStream(num_events, c.num_keys,
                                     seed ^ 0x9E3779B97F4A7C15ull);
  if (c.max_delay > 0) {
    const size_t displacement =
        rng.Uniform(1, static_cast<uint64_t>(c.max_delay) * 3 / 2);
    c.events =
        ApplyBoundedDisorder(c.events, displacement, seed ^ 0xC0FFEEull);
  }

  // The initial query is op 0 — durable via the changelog like any other
  // churn, so a kill at (or torn record at) index 0 is just another
  // point in the schedule.
  int next_tag = 0;
  CrashOp initial;
  initial.at_event = 0;
  initial.kind = CrashOp::kAdd;
  initial.query = RandomQuery(rng, agg, per_key);
  initial.tag = next_tag++;
  c.ops.push_back(std::move(initial));

  const size_t num_ops = rng.Uniform(2, 7);
  std::set<size_t> indices;
  for (size_t i = 0; i < num_ops; ++i) {
    indices.insert(rng.Uniform(1, c.events.size() - 1));
  }
  size_t live = 1;
  for (size_t at : indices) {
    CrashOp op;
    op.at_event = at;
    const uint64_t dice = rng.Uniform(0, 99);
    if (dice < 30) {
      op.kind = CrashOp::kResize;
      op.shards = static_cast<uint32_t>(rng.Uniform(1, 5));
    } else if (dice < 55 && live > 1) {
      op.kind = CrashOp::kRemove;
      op.remove_slot = rng.Uniform(0, 1u << 16);  // Taken mod live size.
      --live;
    } else if (live < 5) {
      op.kind = CrashOp::kAdd;
      op.query = RandomQuery(rng, agg, per_key);
      op.tag = next_tag++;
      ++live;
    } else {
      continue;
    }
    c.ops.push_back(std::move(op));
  }

  c.kill_at = rng.Uniform(0, c.events.size());
  c.kill_after_ops = rng.Uniform(0, 1) == 1;
  c.tear_bytes = rng.Uniform(0, 1) == 1 ? rng.Uniform(1, 8) : 0;
  if (rng.Uniform(0, 1) == 1) {
    c.writer_kill_stage = static_cast<int>(
        rng.Uniform(0, durability::kNumSnapshotStages - 1));
    c.writer_kill_snapshot = static_cast<int>(rng.Uniform(1, 3));
  }
  return c;
}

/// Arms the snapshot writer's kill seam for one case (see CrashCase).
/// Disarm it once the session is gone: recovered sessions write
/// snapshots too.
class WriterKill {
 public:
  WriterKill(int stage, int snapshot) {
    if (stage < 0) return;
    durability::SetSnapshotKillHookForTesting(
        [this, stage, snapshot](durability::SnapshotStage at) {
          if (at == durability::SnapshotStage::kRolled) ++started_;
          if (started_ != snapshot || static_cast<int>(at) != stage) {
            return false;
          }
          fired_ = true;
          return true;
        });
  }
  ~WriterKill() { Disarm(); }

  bool fired() const { return fired_; }
  /// Returns whether the kill fired.
  bool Disarm() {
    durability::SetSnapshotKillHookForTesting(nullptr);
    return fired_;
  }

 private:
  std::atomic<int> started_{0};
  std::atomic<bool> fired_{false};
};

// --- The dup-asserting result map ------------------------------------------

// Results keyed (tag, operator, start, end, key). A key seen twice is
// the at-least-once replay window re-delivering — the value must be
// bitwise identical to the first delivery.
struct Recorded {
  SessionResults results;
  uint64_t redelivered = 0;
};

StreamSession::ResultCallback Tagged(Recorded* out, int tag) {
  return [out, tag](const WindowResult& r) {
    auto key = std::make_tuple(tag, r.operator_id, r.start, r.end, r.key);
    auto [it, inserted] = out->results.emplace(key, r.value);
    if (!inserted) {
      EXPECT_EQ(it->second, r.value)
          << "re-delivered result differs bitwise (tag " << tag << ", op "
          << r.operator_id << ", [" << r.start << ", " << r.end
          << "), key " << r.key << ")";
      ++out->redelivered;
    }
  };
}

void ExpectSameResults(const SessionResults& got,
                       const SessionResults& want) {
  if (got == want) return;
  ADD_FAILURE() << "result maps differ (got " << got.size()
                << " entries, want " << want.size() << ")";
  auto print = [](const char* kind, const SessionResults::value_type& kv) {
    ADD_FAILURE() << kind << " (tag " << std::get<0>(kv.first) << ", op "
                  << std::get<1>(kv.first) << ", [" << std::get<2>(kv.first)
                  << ", " << std::get<3>(kv.first) << "), key "
                  << std::get<4>(kv.first) << ") = " << kv.second;
  };
  for (const auto& kv : want) {
    auto it = got.find(kv.first);
    if (it == got.end()) {
      print("missing", kv);
    } else if (it->second != kv.second) {
      print("want", kv);
      print("got", *it);
    }
  }
  for (const auto& kv : got) {
    if (want.find(kv.first) == want.end()) print("extra", kv);
  }
}

// --- Oracle ----------------------------------------------------------------

// The uninterrupted truth: one 1-shard session, no durability, the whole
// stream and schedule (resizes ignored — the oracle defines output, and
// sharding is output-invariant by the elasticity tests).
void RunOracle(const CrashCase& c, Recorded* out,
               StreamSession::SessionStats* stats) {
  StreamSession::Options options;
  options.num_keys = c.num_keys;
  options.max_delay = c.max_delay;
  StreamSession session(options);
  std::vector<QueryId> live;
  size_t next_op = 0;
  for (size_t i = 0; i <= c.events.size(); ++i) {
    while (next_op < c.ops.size() && c.ops[next_op].at_event == i) {
      const CrashOp& op = c.ops[next_op++];
      switch (op.kind) {
        case CrashOp::kAdd: {
          Result<QueryId> id = session.AddQuery(op.query, Tagged(out, op.tag));
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          live.push_back(*id);
          break;
        }
        case CrashOp::kRemove: {
          ASSERT_GT(live.size(), 1u);
          const size_t slot = op.remove_slot % live.size();
          ASSERT_TRUE(session.RemoveQuery(live[slot]).ok());
          live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
          break;
        }
        case CrashOp::kResize:
          break;
      }
    }
    if (i == c.events.size()) break;
    Status status = session.Push(c.events[i]);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_TRUE(session.Finish().ok());
  *stats = session.Stats();
}

// --- Subject: run, kill, tear, recover, resume -----------------------------

/// Runs one case; `seed` also seeds the subject's batch sizes. Sets
/// *writer_killed (when given) to whether the case's writer kill —
/// phase 1's or the recovery snapshot's — fired.
void RunCase(const CrashCase& c, uint64_t seed, bool* writer_killed) {
  Recorded oracle;
  StreamSession::SessionStats oracle_stats;
  ASSERT_NO_FATAL_FAILURE(RunOracle(c, &oracle, &oracle_stats));
  ASSERT_FALSE(oracle.results.empty());

  TempDir dir;
  Recorded subject;
  // Assigned query ids, phase 1 (op index -> id) and id -> tag, for the
  // ambiguous-boundary disambiguation and the recovery callback factory.
  std::map<size_t, QueryId> phase1_add_id;
  std::map<size_t, QueryId> phase1_remove_id;
  std::map<QueryId, int> tag_of;

  // ---- Phase 1: durable session up to the kill point. ----
  // Events admitted and ops applied before the kill — the kill position
  // itself when no writer kill cuts the run short.
  size_t admitted = 0;
  std::set<size_t> applied_ops;
  WriterKill writer_kill(c.writer_kill_stage, c.writer_kill_snapshot);
  {
    StreamSession::Options options;
    options.num_keys = c.num_keys;
    options.num_shards = c.initial_shards;
    options.max_delay = c.max_delay;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.fsync_policy = c.fsync_policy;
    options.durability.fsync_interval_events = 128;
    options.durability.snapshot_interval_events = c.snapshot_interval;
    StreamSession session(options);

    // A killed writer surfaces at the session's next join point, and the
    // mutation after it fails: the process died right before that call.
    bool dead = false;
    auto survived = [&](const Status& status) {
      if (status.ok()) return true;
      EXPECT_TRUE(writer_kill.fired()) << status.ToString();
      EXPECT_NE(status.message().find("snapshot writer killed"),
                std::string::npos)
          << status.ToString();
      dead = true;
      return false;
    };

    std::vector<QueryId> live;
    Rng batch_rng(seed * 2 + 1);
    EventColumns pending;
    size_t batch_target = 0;
    auto flush = [&] {
      if (pending.empty() || !survived(session.PushColumns(pending))) return;
      admitted += pending.size();
      pending.clear();
    };

    size_t next_op = 0;
    for (size_t i = 0; i <= c.kill_at && !dead; ++i) {
      const bool ops_fire =
          i < c.kill_at || (i == c.kill_at && c.kill_after_ops);
      if (ops_fire && next_op < c.ops.size() &&
          c.ops[next_op].at_event == i) {
        flush();
      }
      while (!dead && ops_fire && next_op < c.ops.size() &&
             c.ops[next_op].at_event == i) {
        const size_t op_index = next_op;
        const CrashOp& op = c.ops[next_op++];
        switch (op.kind) {
          case CrashOp::kAdd: {
            Result<QueryId> id =
                session.AddQuery(op.query, Tagged(&subject, op.tag));
            if (!survived(id.status())) break;
            live.push_back(*id);
            phase1_add_id[op_index] = *id;
            tag_of[*id] = op.tag;
            applied_ops.insert(op_index);
            break;
          }
          case CrashOp::kRemove: {
            ASSERT_GT(live.size(), 1u);
            const size_t slot = op.remove_slot % live.size();
            if (!survived(session.RemoveQuery(live[slot]))) break;
            phase1_remove_id[op_index] = live[slot];
            live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
            applied_ops.insert(op_index);
            break;
          }
          case CrashOp::kResize:
            ASSERT_TRUE(session.Resize(op.shards).ok());
            applied_ops.insert(op_index);
            break;
        }
      }
      if (dead || i == c.kill_at) break;
      if (c.columnar) {
        if (pending.empty()) batch_target = batch_rng.Uniform(1, 64);
        pending.Append(c.events[i]);
        if (pending.size() >= batch_target) flush();
      } else if (survived(session.Push(c.events[i]))) {
        ++admitted;
      }
    }
    // Kill: destructor, no Finish, no flush of the caller-side pending
    // batch — exactly what a crashed producer loses.
  }
  // The destructor joined the writer, so the kill's outcome is final.
  const bool killed = writer_kill.Disarm();
  if (writer_killed != nullptr) *writer_killed = killed;

  if (c.tear_bytes > 0) {
    // Tearing at most 8 bytes damages exactly the final record (frames
    // are >= 9 bytes), simulating a crash mid-append.
    TearNewestSegment(dir.path, c.tear_bytes);
  }

  // ---- Recover, possibly at a different shard count. ----
  StreamSession::Options options;
  options.num_keys = c.num_keys;
  options.num_shards = c.recover_shards;
  options.max_delay = c.max_delay;
  const StreamSession::CallbackFactory callbacks =
      [&](QueryId id, const StreamQuery&) {
        auto it = tag_of.find(id);
        EXPECT_NE(it, tag_of.end()) << "recovered unknown query id " << id;
        return it == tag_of.end() ? StreamSession::ResultCallback(nullptr)
                                  : Tagged(&subject, it->second);
      };
  if (c.recovery_kill_stage >= 0) {
    // The process dies again while the first recovery's snapshot writer
    // sits at the drawn stage: the session is dropped without another
    // call, and its destructor joins the stopped writer. What it
    // re-delivered during replay stays delivered.
    WriterKill recovery_kill(c.recovery_kill_stage, 1);
    {
      Result<StreamSession::RecoveryInfo> first =
          StreamSession::Recover(dir.path, options, callbacks);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
    }
    const bool fired = recovery_kill.Disarm();
    if (writer_killed != nullptr) *writer_killed = fired;
  }
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options, callbacks);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const uint64_t durable = recovered->durable_events;
  ASSERT_LE(durable, admitted);
  if (c.tear_bytes == 0) {
    // No tear: every admitted event is durable (a kill loses nothing
    // from the page cache).
    EXPECT_EQ(durable, admitted);
  }
  StreamSession& session = *recovered->session;
  // Recover's truncation deletes any temp file a killed writer left, once
  // Stats() has joined the writer.
  (void)session.Stats();
  Result<std::vector<std::string>> names = durability::ListDir(dir.path);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    EXPECT_FALSE(durability::ParseSnapshotTempFileName(name, &seq)) << name;
  }

  const std::vector<QueryId> recovered_ids = session.QueryIds();
  const std::set<QueryId> recovered_set(recovered_ids.begin(),
                                        recovered_ids.end());

  // ---- Phase 2: resume the schedule from the durable position. ----
  std::vector<QueryId> live = recovered_ids;
  Rng batch_rng(seed * 3 + 7);
  EventColumns pending;
  size_t batch_target = 0;
  auto flush = [&] {
    if (pending.empty()) return;
    Status status = session.PushColumns(pending);
    ASSERT_TRUE(status.ok()) << status.ToString();
    pending.clear();
  };

  size_t next_op = 0;
  for (size_t i = 0; i <= c.events.size(); ++i) {
    for (; next_op < c.ops.size() && c.ops[next_op].at_event == i;
         ++next_op) {
      const size_t op_index = next_op;
      const CrashOp& op = c.ops[next_op];
      if (i < durable) continue;  // Durable-applied: already in state.
      const bool applied_in_phase1 = applied_ops.count(op_index) > 0;
      if (i == durable && applied_in_phase1) {
        // The boundary is ambiguous: the op fired before the crash, but
        // its changelog record may have been the torn final one. The
        // recovered query set says which.
        if (op.kind == CrashOp::kAdd &&
            recovered_set.count(phase1_add_id.at(op_index)) > 0) {
          continue;  // Durable.
        }
        if (op.kind == CrashOp::kRemove &&
            recovered_set.count(phase1_remove_id.at(op_index)) == 0) {
          continue;  // Durable.
        }
        // Resizes are never logged — re-applying is free and exact.
      }
      if (i > durable && op.kind != CrashOp::kResize) {
        // A logged op's churn record precedes every event admitted after
        // it, and a tear only reaches the final record — so an applied
        // add/remove past the durable position would mean the log lost a
        // middle record. Resizes are unlogged: one applied right before
        // a torn final batch leaves no trace, and re-applying is exact.
        ASSERT_FALSE(applied_in_phase1)
            << "op at " << op.at_event << " applied but not durable, yet "
            << "events past it survived — the log lost a middle record";
      }
      ASSERT_NO_FATAL_FAILURE(flush());
      switch (op.kind) {
        case CrashOp::kAdd: {
          Result<QueryId> id =
              session.AddQuery(op.query, Tagged(&subject, op.tag));
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          live.push_back(*id);
          tag_of[*id] = op.tag;
          break;
        }
        case CrashOp::kRemove: {
          ASSERT_GT(live.size(), 1u);
          const size_t slot = op.remove_slot % live.size();
          ASSERT_TRUE(session.RemoveQuery(live[slot]).ok());
          live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
          break;
        }
        case CrashOp::kResize:
          ASSERT_TRUE(session.Resize(op.shards).ok());
          break;
      }
    }
    if (i == c.events.size()) break;
    if (i < durable) continue;  // Already admitted and durable.
    if (c.columnar) {
      if (pending.empty()) batch_target = batch_rng.Uniform(1, 64);
      pending.Append(c.events[i]);
      if (pending.size() >= batch_target) {
        ASSERT_NO_FATAL_FAILURE(flush());
      }
    } else {
      Status status = session.Push(c.events[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  ASSERT_NO_FATAL_FAILURE(flush());
  ASSERT_TRUE(session.Finish().ok());

  // ---- The crash must be invisible in the output and the counters. ----
  ExpectSameResults(subject.results, oracle.results);
  const StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.events_pushed, oracle_stats.events_pushed);
  EXPECT_EQ(stats.late_events, oracle_stats.late_events);
  EXPECT_EQ(stats.replans, oracle_stats.replans);
  EXPECT_EQ(stats.lifetime_ops, oracle_stats.lifetime_ops);
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("crash seed " + std::to_string(seed) +
               " — repro: FW_CRASH_SEED=" + std::to_string(seed) +
               " ./crash_recovery_fuzz_test"
               " --gtest_filter=CrashRecoveryFuzz.ReproSeed");
  RunCase(GenerateCase(seed), seed, nullptr);
}

// --- Entry points ----------------------------------------------------------

// Always-on subset: fixed seeds, frozen forever — a failure here is a
// real behavioral change. The seeds cover scalar and columnar feeds,
// torn and clean tails, churn-heavy and disorder-heavy cases.
TEST(CrashRecoveryFuzz, FixedSeedsTier1) {
  for (uint64_t seed : {2u, 5u, 16u, 23u, 101u, 444u, 8080u, 20260808u}) {
    RunSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::fprintf(stderr,
                   "crash-recovery fuzz failure — reproduce with:\n  "
                   "FW_CRASH_SEED=%llu ./crash_recovery_fuzz_test "
                   "--gtest_filter=CrashRecoveryFuzz.ReproSeed\n",
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

// Always-on writer kills: every SnapshotStage, forced onto fixed-seed
// cases with 64-event snapshots. The first seed of each pair runs to the
// end of the stream, so the kill surfaces at the next due snapshot's
// join; the second is killed before that snapshot falls due, so only the
// destructor joins the stopped writer.
TEST(CrashRecoveryFuzz, WriterKillStagesTier1) {
  for (int stage = 0; stage < durability::kNumSnapshotStages; ++stage) {
    for (uint64_t seed : {7u, 31u}) {
      SCOPED_TRACE("writer kill at stage " + std::to_string(stage) +
                   " forced onto crash seed " + std::to_string(seed));
      CrashCase c = GenerateCase(seed);
      c.snapshot_interval = 64;
      c.writer_kill_stage = stage;
      c.writer_kill_snapshot = 1 + stage % 3;
      c.kill_at = seed == 7u ? c.events.size()
                             : 64 * static_cast<size_t>(
                                        c.writer_kill_snapshot) + 10;
      bool killed = false;
      RunCase(c, seed, &killed);
      EXPECT_TRUE(killed);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
}

// Always-on double crashes: the recovery snapshot's writer stops at
// every SnapshotStage, on a clean tail and on a torn one, and the
// recovered session dies with it. The next Recover must accept the
// directory — the previous snapshot plus the resumed and new segments,
// or the recovery snapshot once it is renamed into place — and the
// resumed run must match the oracle bitwise.
TEST(CrashRecoveryFuzz, RecoverySnapshotKillStagesTier1) {
  for (int stage = 0; stage < durability::kNumSnapshotStages; ++stage) {
    for (size_t tear : {size_t{0}, size_t{5}}) {
      for (uint64_t seed : {7u, 31u}) {
        SCOPED_TRACE("recovery snapshot kill at stage " +
                     std::to_string(stage) + ", tear " +
                     std::to_string(tear) + ", crash seed " +
                     std::to_string(seed));
        // A scalar feed killed 32 events past the fifth periodic
        // snapshot: the resumed segment holds records even after a tear,
        // so the roll demotes it and truncation has files to delete.
        CrashCase c = GenerateCase(seed);
        c.snapshot_interval = 64;
        c.columnar = false;
        c.writer_kill_stage = -1;
        c.recovery_kill_stage = stage;
        c.tear_bytes = tear;
        c.kill_at = 64 * 5 + 32;
        bool killed = false;
        RunCase(c, seed, &killed);
        EXPECT_TRUE(killed);
        if (HasFatalFailure() || HasNonfatalFailure()) return;
      }
    }
  }
}

// One-line reproduction target for any failing seed.
TEST(CrashRecoveryFuzz, ReproSeed) {
  const char* env = std::getenv("FW_CRASH_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set FW_CRASH_SEED=<seed> to replay one case";
  }
  RunSeed(std::strtoull(env, nullptr, 10));
}

// Env-scaled search for the workflow_dispatch CI soak (and local runs).
// FW_CRASH_SEEDS counts cases; FW_CRASH_BASE_SEED (default 5000) offsets
// the range so independent runs explore different seeds.
TEST(CrashRecoveryFuzz, LongRandomized) {
  const char* env = std::getenv("FW_CRASH_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set FW_CRASH_SEEDS=<count> to run the long search";
  }
  const uint64_t count = std::strtoull(env, nullptr, 10);
  const char* base_env = std::getenv("FW_CRASH_BASE_SEED");
  const uint64_t base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 5000;
  for (uint64_t seed = base; seed < base + count; ++seed) {
    RunSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::fprintf(stderr,
                   "crash-recovery fuzz failure at seed %llu — reproduce "
                   "with:\n  FW_CRASH_SEED=%llu ./crash_recovery_fuzz_test "
                   "--gtest_filter=CrashRecoveryFuzz.ReproSeed\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

}  // namespace
}  // namespace fw
