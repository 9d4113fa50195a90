// The durability subsystem (DESIGN.md §16), bottom up: the CRC32C frame
// layer and its torn-tail detection, the changelog payload codecs and
// segment reader (torn-tail vs corruption vs gap semantics), the snapshot
// store's all-or-nothing validity and fall-back, and the session-level
// contract — write-ahead logging, snapshot truncation, fail-stop, and
// StreamSession::Recover end to end (including recovery at a different
// shard count, idempotent re-recovery, and the "recovery stopped at
// segment S, record R" error wording).
//
// Also home of two format-hardening properties: serialize → deserialize →
// serialize of a binary ExecutorCheckpoint is byte-identical, and no
// single-byte corruption of any durability file or checkpoint can crash a
// reader (run under the ASan/UBSan CI leg via the tier-1 label).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "durability/crc32c.h"
#include "durability/framed_io.h"
#include "durability/manager.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "exec/checkpoint.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

using durability::Frame;
using durability::FramedBuffer;
using durability::FramedFileWriter;

using SessionResults =
    std::map<std::tuple<int, int, TimeT, TimeT, uint32_t>, double>;

// --- Filesystem helpers ----------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/fw_durability_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? std::string(dir) : std::string();
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      durability::RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

/// RAII temp dir so every test cleans up even on assertion failure.
struct TempDir {
  TempDir() : path(MakeTempDir()) {}
  ~TempDir() { RemoveTree(path); }
  std::string path;
};

std::string ReadAll(const std::string& path) {
  std::string bytes;
  Status status = durability::ReadFileBytes(path, &bytes);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bytes;
}

// Byte-level tampering (corruption injection). Test-only raw I/O: the
// whole point is writing bytes the framed layer would refuse to.
void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes = ReadAll(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  WriteAll(path, bytes);
}

void TruncateFile(const std::string& path, size_t drop_bytes) {
  std::string bytes = ReadAll(path);
  ASSERT_LE(drop_bytes, bytes.size());
  bytes.resize(bytes.size() - drop_bytes);
  WriteAll(path, bytes);
}

/// The single file in `dir` matching `parse`, or "" when there is not
/// exactly one.
template <typename ParseFn>
std::string TheFile(const std::string& dir, ParseFn parse) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::string found;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (!parse(name, &seq)) continue;
    if (!found.empty()) return std::string();
    found = name;
  }
  return found;
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32c, KnownVectorsAndIncrementalExtension) {
  // The RFC 3720 check value for CRC-32C.
  const char kCheck[] = "123456789";
  EXPECT_EQ(durability::Crc32c(0, kCheck, 9), 0xE3069283u);
  EXPECT_EQ(durability::Crc32c(0, kCheck, 0), 0u);

  // Extending a running value must equal the one-shot checksum.
  const std::string data = "factor windows factor windows factor windows";
  const uint32_t whole = durability::Crc32c(0, data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = durability::Crc32c(0, data.data(), split);
    crc = durability::Crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }

  // RFC 3720 B.4's 32-byte vectors: all zeros, all ones, ascending and
  // descending bytes — whole 8-byte steps only.
  unsigned char zeros[32] = {};
  unsigned char ones[32];
  unsigned char ascending[32];
  unsigned char descending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(durability::Crc32c(0, zeros, 32), 0x8A9136AAu);
  EXPECT_EQ(durability::Crc32c(0, ones, 32), 0x62A8AB43u);
  EXPECT_EQ(durability::Crc32c(0, ascending, 32), 0x46DD794Eu);
  EXPECT_EQ(durability::Crc32c(0, descending, 32), 0x113FDB5Cu);

  // Against a bytewise reference: every length 0-64 at every start
  // offset 0-7 (so the 8-byte loop meets every alignment and tail), and
  // one 1 MiB buffer.
  const auto reference = [](const unsigned char* p, size_t size) {
    uint32_t crc = ~0u;
    for (size_t i = 0; i < size; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
    }
    return ~crc;
  };
  Rng rng(3720);
  std::vector<unsigned char> bytes(1 << 20);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.Uniform(0, 255));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 64; ++size) {
      EXPECT_EQ(durability::Crc32c(0, bytes.data() + offset, size),
                reference(bytes.data() + offset, size))
          << "offset " << offset << ", length " << size;
    }
  }
  EXPECT_EQ(durability::Crc32c(0, bytes.data(), bytes.size()),
            reference(bytes.data(), bytes.size()));
}

// --- Frame layer -----------------------------------------------------------

TEST(FramedIo, WriteReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.path + "/frames.bin";
  {
    FramedFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append(1, "alpha").ok());
    ASSERT_TRUE(writer.Append(2, "").ok());
    ASSERT_TRUE(writer.Append(7, std::string(1000, 'x')).ok());
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  FramedBuffer frames(ReadAll(path));
  Frame frame;
  ASSERT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kFrame);
  EXPECT_EQ(frame.type, 1);
  EXPECT_EQ(frame.payload, "alpha");
  ASSERT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kFrame);
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(frame.payload, "");
  ASSERT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kFrame);
  EXPECT_EQ(frame.type, 7);
  EXPECT_EQ(frame.payload.size(), 1000u);
  EXPECT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kEnd);
  EXPECT_EQ(frames.frames_read(), 3u);
}

TEST(FramedIo, DetectsTornAndFlippedTails) {
  TempDir dir;
  const std::string path = dir.path + "/frames.bin";
  {
    FramedFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append(1, "first record").ok());
    ASSERT_TRUE(writer.Append(2, "second record").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const std::string whole = ReadAll(path);

  // Every possible truncation point that is not a frame boundary must
  // parse as the valid prefix plus a torn tail — never as extra frames
  // and never as a crash.
  const size_t first_frame = 9 + std::string("first record").size();
  for (size_t keep = 0; keep < whole.size(); ++keep) {
    FramedBuffer frames(whole.substr(0, keep));
    Frame frame;
    FramedBuffer::Outcome outcome;
    while ((outcome = frames.Next(&frame)) == FramedBuffer::Outcome::kFrame) {
    }
    if (keep == 0) {
      EXPECT_EQ(outcome, FramedBuffer::Outcome::kEnd);
    } else if (keep < first_frame) {
      EXPECT_EQ(outcome, FramedBuffer::Outcome::kTorn) << "keep " << keep;
      EXPECT_EQ(frames.frames_read(), 0u);
    } else if (keep == first_frame) {
      EXPECT_EQ(outcome, FramedBuffer::Outcome::kEnd);
      EXPECT_EQ(frames.frames_read(), 1u);
    } else {
      EXPECT_EQ(outcome, FramedBuffer::Outcome::kTorn) << "keep " << keep;
      EXPECT_EQ(frames.frames_read(), 1u);
      EXPECT_FALSE(frames.torn_detail().empty());
    }
  }

  // A bit flip anywhere inside the final frame leaves the first frame
  // readable and the tail torn (CRC or header damage — either way,
  // detected, not returned as data).
  for (size_t at = first_frame; at < whole.size(); ++at) {
    std::string flipped = whole;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    FramedBuffer frames(std::move(flipped));
    Frame frame;
    ASSERT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kFrame);
    EXPECT_EQ(frame.payload, "first record");
    EXPECT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kTorn)
        << "flip at " << at;
  }
}

TEST(FramedIo, CorruptLengthNeverDrivesHugeAllocation) {
  // A length field past kMaxFrameLength must read as torn, not as a
  // gigabyte allocation request.
  ByteWriter w;
  w.U32(0x7FFFFFFFu);  // length
  w.U32(0);            // crc
  w.U8(1);             // type
  FramedBuffer frames(w.Take());
  Frame frame;
  EXPECT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kTorn);
  EXPECT_FALSE(frames.torn_detail().empty());
}

// --- Changelog payload codecs ---------------------------------------------

StreamQuery MakeQuery(const char* agg, TimeT range, TimeT slide,
                      bool per_key = true) {
  StreamQuery query;
  query.source = "sensors";
  query.agg = Agg(agg);
  query.value_column = "v";
  query.per_key = per_key;
  if (per_key) query.key_column = "k";
  EXPECT_TRUE(query.windows.Add(Window(range, slide)).ok());
  return query;
}

TEST(WalCodec, EventsPayloadRoundTrip) {
  EventColumns columns;
  columns.Append({.timestamp = 3, .key = 1, .value = 21.5});
  columns.Append({.timestamp = 5, .key = 0, .value = -0.25});
  columns.Append({.timestamp = 5, .key = 2, .value = 1e300});
  std::string payload = "stale bytes the encoder must overwrite";
  durability::EncodeEventsPayload(columns, &payload);

  EventColumns decoded;
  ASSERT_TRUE(durability::DecodeEventsPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.keys, columns.keys);
  EXPECT_EQ(decoded.values, columns.values);

  // Truncations and count/length mismatches must fail with a Status.
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EventColumns scratch;
    EXPECT_FALSE(
        durability::DecodeEventsPayload(payload.substr(0, keep), &scratch)
            .ok())
        << "keep " << keep;
  }
  std::string forged = payload;
  forged[0] = static_cast<char>(0xFF);  // count low byte: now inconsistent
  EventColumns scratch;
  Status status = durability::DecodeEventsPayload(forged, &scratch);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("length mismatch"), std::string::npos)
      << status.ToString();
}

TEST(WalCodec, QueryPayloadRoundTrip) {
  StreamQuery query = MakeQuery("SUM", 20, 5);
  ASSERT_TRUE(query.windows.Add(Window(60, 60)).ok());
  const std::string payload = durability::EncodeQueryPayload(42, query);

  uint64_t id = 0;
  StreamQuery decoded;
  ASSERT_TRUE(durability::DecodeQueryPayload(payload, &id, &decoded).ok());
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(decoded.ToSql(), query.ToSql());
  EXPECT_EQ(decoded.agg, query.agg);

  for (size_t keep = 0; keep < payload.size(); ++keep) {
    uint64_t scratch_id = 0;
    StreamQuery scratch;
    EXPECT_FALSE(durability::DecodeQueryPayload(payload.substr(0, keep),
                                                &scratch_id, &scratch)
                     .ok())
        << "keep " << keep;
  }
}

TEST(WalCodec, UnknownAggregateFailsWithGuidance) {
  // A changelog from a session using an unregistered UDAF must say so —
  // the recovery caller has to register it first.
  ByteWriter w;
  w.U64(7);
  w.Str("sensors");
  w.Str("NO_SUCH_AGG");
  w.Str("v");
  w.U8(0);
  w.Str("");
  w.U32(0);
  uint64_t id = 0;
  StreamQuery query;
  Status status = durability::DecodeQueryPayload(w.Take(), &id, &query);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("NO_SUCH_AGG"), std::string::npos);
  EXPECT_NE(status.message().find("register"), std::string::npos);
}

TEST(WalCodec, RemoveQueryPayloadRoundTrip) {
  const std::string payload = durability::EncodeRemoveQueryPayload(99);
  uint64_t id = 0;
  ASSERT_TRUE(durability::DecodeRemoveQueryPayload(payload, &id).ok());
  EXPECT_EQ(id, 99u);
  EXPECT_FALSE(durability::DecodeRemoveQueryPayload("", &id).ok());
  EXPECT_FALSE(
      durability::DecodeRemoveQueryPayload(payload + "x", &id).ok());
}

TEST(WalCodec, SegmentAndSnapshotFileNames) {
  uint64_t seq = 123;
  EXPECT_EQ(durability::SegmentFileName(0),
            "wal-00000000000000000000.log");
  EXPECT_TRUE(durability::ParseSegmentFileName(
      durability::SegmentFileName(987654321), &seq));
  EXPECT_EQ(seq, 987654321u);
  EXPECT_TRUE(durability::ParseSnapshotFileName(
      durability::SnapshotFileName(17), &seq));
  EXPECT_EQ(seq, 17u);
  EXPECT_FALSE(durability::ParseSegmentFileName("wal-123.log", &seq));
  EXPECT_FALSE(durability::ParseSegmentFileName(
      durability::SnapshotFileName(1), &seq));
  EXPECT_FALSE(durability::ParseSegmentFileName("", &seq));
  // Zero padding keeps lexicographic order numeric.
  EXPECT_LT(durability::SegmentFileName(9),
            durability::SegmentFileName(10));
}

// --- Changelog reader ------------------------------------------------------

/// Writes `count` one-event records starting at the writer's position.
void AppendEventRecords(durability::WalWriter* wal, int count,
                        TimeT start_ts) {
  std::string payload;
  for (int i = 0; i < count; ++i) {
    EventColumns one;
    one.Append({.timestamp = start_ts + i, .key = 0,
                .value = static_cast<double>(i)});
    durability::EncodeEventsPayload(one, &payload);
    ASSERT_TRUE(wal->Append(durability::kWalEvents, payload).ok());
  }
}

TEST(Changelog, ReadsAcrossSegmentsFromStartSeq) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 3, 100));
  ASSERT_TRUE(wal.Roll().ok());
  EXPECT_EQ(wal.segment_base(), 3u);
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 200));
  ASSERT_TRUE(wal.Close().ok());

  std::vector<durability::WalRecord> records;
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 0, &records).ok());
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].segment_base, i < 3 ? 0u : 3u);
    EXPECT_EQ(records[i].index_in_segment, i < 3 ? i : i - 3);
    EXPECT_EQ(records[i].type, durability::kWalEvents);
  }

  // start_seq filters at record granularity.
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 4, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 4u);
}

TEST(Changelog, TornTailOfNewestSegmentEndsTheLogCleanly) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 4, 100));
  ASSERT_TRUE(wal.Close().ok());

  // Drop a few tail bytes: the crash-mid-append shape.
  TruncateFile(dir.path + "/" + durability::SegmentFileName(0), 5);

  std::vector<durability::WalRecord> records;
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 0, &records).ok());
  EXPECT_EQ(records.size(), 3u);
}

TEST(Changelog, DamageInOlderSegmentFailsWithStopPosition) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 3, 100));
  ASSERT_TRUE(wal.Roll().ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 200));
  ASSERT_TRUE(wal.Close().ok());

  // Tear the *older* segment's tail: records after the damage would be
  // silently skipped, so this is corruption, not a clean end.
  TruncateFile(dir.path + "/" + durability::SegmentFileName(0), 3);

  std::vector<durability::WalRecord> records;
  Status status = durability::ReadChangelog(dir.path, 0, &records);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("recovery stopped at segment 0, record 2"),
            std::string::npos)
      << status.ToString();
}

TEST(Changelog, SegmentSequenceGapFailsWithStopPosition) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 3, 100));
  ASSERT_TRUE(wal.Roll().ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 200));
  ASSERT_TRUE(wal.Roll().ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 1, 300));
  ASSERT_TRUE(wal.Close().ok());

  // Deleting a middle segment leaves a hole in the sequence space.
  ASSERT_TRUE(durability::RemoveFile(
                  dir.path + "/" + durability::SegmentFileName(3))
                  .ok());

  std::vector<durability::WalRecord> records;
  Status status = durability::ReadChangelog(dir.path, 0, &records);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("recovery stopped at segment 5, record 0"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("gap"), std::string::npos);
}

TEST(Changelog, TornSegmentFullyCoveredBySnapshotIsSkipped) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 3, 100));
  ASSERT_TRUE(wal.Roll().ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 200));
  ASSERT_TRUE(wal.Close().ok());
  // Tear the older segment's tail (drops its last record).
  ASSERT_NO_FATAL_FAILURE(
      TruncateFile(dir.path + "/" + durability::SegmentFileName(0), 3));

  // While the damaged segment could still hold replayable records, the
  // tear is corruption.
  std::vector<durability::WalRecord> records;
  EXPECT_FALSE(durability::ReadChangelog(dir.path, 2, &records).ok());

  // Once a snapshot covers the segment's entire range [0, 3), it is
  // skipped without reading — the leftover shape of a truncation
  // interrupted between the snapshot's publish and the unlink.
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 3, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 3u);
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 4, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 4u);
}

TEST(Changelog, HeadTruncatedBehindStartSeqFailsWithStopPosition) {
  TempDir dir;
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir.path, 10).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 100));
  ASSERT_TRUE(wal.Close().ok());

  // Replay from seq 4 needs records [4, 10), but the segments holding
  // them were truncated (by a snapshot that is no longer the one being
  // restored). Silent replay would drop those events — must refuse.
  std::vector<durability::WalRecord> records;
  Status status = durability::ReadChangelog(dir.path, 4, &records);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("recovery stopped at segment 10, record 0"),
            std::string::npos)
      << status.ToString();

  // At exactly the surviving segment's base there is no hole.
  ASSERT_TRUE(durability::ReadChangelog(dir.path, 10, &records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST(Changelog, FirstSyncIntoEachSegmentSyncsTheDirectory) {
  TempDir dir;
  const std::string sub = dir.path + "/sub";
  ASSERT_TRUE(durability::EnsureDir(sub).ok());
  durability::WalWriter wal;
  ASSERT_TRUE(wal.Open(sub, 0).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 2, 100));
  // The first fsync into the segment carries the directory, later ones
  // do not; each covers what was appended when it was prepared.
  const durability::ChangelogSync first = wal.PrepareSync();
  EXPECT_EQ(first.dir, sub);
  EXPECT_EQ(first.path, sub + "/" + durability::SegmentFileName(0));
  EXPECT_GT(first.bytes, 0u);
  ASSERT_TRUE(durability::SyncChangelog(first).ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 1, 102));
  const durability::ChangelogSync later = wal.PrepareSync();
  EXPECT_TRUE(later.dir.empty());
  EXPECT_GT(later.bytes, first.bytes);
  // With the directory renamed away, a later fsync still succeeds: it
  // does not touch the directory.
  const std::string moved = dir.path + "/moved";
  ASSERT_EQ(::rename(sub.c_str(), moved.c_str()), 0);
  EXPECT_TRUE(durability::SyncChangelog(later).ok());
  ASSERT_EQ(::rename(moved.c_str(), sub.c_str()), 0);

  // A rolled segment's first fsync carries the directory again, so with
  // the directory renamed away it fails, naming the directory.
  ASSERT_TRUE(wal.Roll().ok());
  ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 1, 103));
  ASSERT_EQ(::rename(sub.c_str(), moved.c_str()), 0);
  const Status status = wal.Sync();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message().rfind("open " + sub + ":", 0), 0u)
      << status.ToString();
  ASSERT_TRUE(wal.Close().ok());
  ASSERT_EQ(::rename(moved.c_str(), sub.c_str()), 0);

  // So does a resumed one.
  durability::WalWriter resumed;
  ASSERT_TRUE(resumed.Resume(sub, {3, 1, ReadAll(sub + "/" +
                                                 durability::SegmentFileName(
                                                     3))
                                             .size()})
                  .ok());
  EXPECT_EQ(resumed.PrepareSync().dir, sub);
  EXPECT_TRUE(resumed.PrepareSync().dir.empty());
  RemoveTree(sub);
}

// --- Snapshot store --------------------------------------------------------

durability::SnapshotContents MakeSnapshot(uint64_t covered_seq) {
  durability::SnapshotContents contents;
  contents.meta.covered_seq = covered_seq;
  contents.meta.covered_events = covered_seq;
  contents.meta.num_keys = 4;
  contents.meta.max_delay = 16;
  contents.meta.late_policy = 1;
  contents.meta.events_pushed = covered_seq;
  contents.meta.next_id = 3;
  contents.meta.watermark = 123;
  contents.meta.planned_eta = 0.75;
  contents.queries.push_back({1, MakeQuery("SUM", 20, 10)});
  contents.queries.push_back({2, MakeQuery("SUM", 60, 60)});
  contents.checkpoint = ExecutorCheckpoint().Serialize();
  contents.has_checkpoint = true;
  return contents;
}

TEST(SnapshotStore, WriteLoadRoundTrip) {
  TempDir dir;
  ASSERT_TRUE(durability::WriteSnapshotFile(dir.path, MakeSnapshot(7)).ok());

  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->skipped, 0);
  const durability::SnapshotMeta& meta = loaded->contents.meta;
  EXPECT_EQ(meta.covered_seq, 7u);
  EXPECT_EQ(meta.num_keys, 4u);
  EXPECT_EQ(meta.max_delay, 16);
  EXPECT_EQ(meta.late_policy, 1);
  EXPECT_EQ(meta.next_id, 3u);
  EXPECT_EQ(meta.watermark, 123);
  EXPECT_EQ(meta.planned_eta, 0.75);
  ASSERT_EQ(loaded->contents.queries.size(), 2u);
  EXPECT_EQ(loaded->contents.queries[0].id, 1u);
  EXPECT_EQ(loaded->contents.queries[1].query.ToSql(),
            MakeQuery("SUM", 60, 60).ToSql());
  EXPECT_TRUE(loaded->contents.has_checkpoint);
  EXPECT_EQ(loaded->contents.checkpoint, ExecutorCheckpoint().Serialize());
}

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(SnapshotStore, MetaGoldenBytes) {
  // Pins the meta frame byte for byte, so any change to it is deliberate:
  // every session counter non-default, the watermark present and the
  // retired watermark absent (a validity byte 0 and a value of 0).
  const std::string expected =
      Unhex("01000000"           // Format version 1,
            "0700000000000000"   // covered_seq 7,
            "2c01000000000000"   // covered_events 300,
            "04000000"           // num_keys 4,
            "1000000000000000"   // max_delay 16,
            "01"                 // late_policy 1,
            "01"                 // finished,
            "2c01000000000000"   // events_pushed 300,
            "0c00000000000000"   // events_dropped 12,
            "0500000000000000"   // replans 5,
            "0200000000000000"   // drift_replans 2,
            "0300000000000000"   // resize_count 3,
            "0600000000000000"   // next_id 6,
            "2201000000000000"   // watermark 290,
            "01"                 //   present;
            "e803000000000000"   // retired_ops 1000,
            "0900000000000000"   // retired_late 9,
            "1100000000000000"   // retired_reorder_peak 17,
            "2800000000000000"   // retired_closes_total 40,
            "5000000000000000"   // retired_finalizes_total 80,
            "0000000000000000"   // retired_watermark
            "00"                 //   absent;
            "000000000000e83f");  // planned_eta 0.75.

  // Bytes to meta: a file of this meta frame and the terminator loads.
  TempDir in;
  {
    FramedFileWriter writer;
    ASSERT_TRUE(
        writer.Open(in.path + "/" + durability::SnapshotFileName(7)).ok());
    ASSERT_TRUE(writer.Append(durability::kSnapMeta, expected).ok());
    ASSERT_TRUE(writer.Append(durability::kSnapEnd, std::string_view()).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(in.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  const durability::SnapshotMeta& meta = loaded->contents.meta;
  EXPECT_EQ(meta.covered_seq, 7u);
  EXPECT_EQ(meta.covered_events, 300u);
  EXPECT_EQ(meta.num_keys, 4u);
  EXPECT_EQ(meta.max_delay, 16);
  EXPECT_EQ(meta.late_policy, 1);
  EXPECT_EQ(meta.finished, 1);
  EXPECT_EQ(meta.events_pushed, 300u);
  EXPECT_EQ(meta.events_dropped, 12u);
  EXPECT_EQ(meta.replans, 5);
  EXPECT_EQ(meta.drift_replans, 2);
  EXPECT_EQ(meta.resize_count, 3u);
  EXPECT_EQ(meta.next_id, 6u);
  EXPECT_EQ(meta.watermark, 290);
  EXPECT_EQ(meta.retired_ops, 1000u);
  EXPECT_EQ(meta.retired_late, 9u);
  EXPECT_EQ(meta.retired_reorder_peak, 17u);
  EXPECT_EQ(meta.retired_closes_total, 40u);
  EXPECT_EQ(meta.retired_finalizes_total, 80u);
  EXPECT_EQ(meta.planned_eta, 0.75);

  // Meta to bytes: writing the loaded meta back reproduces them.
  TempDir out;
  ASSERT_TRUE(durability::WriteSnapshotFile(out.path, loaded->contents).ok());
  FramedBuffer frames(
      ReadAll(out.path + "/" + durability::SnapshotFileName(7)));
  Frame frame;
  ASSERT_EQ(frames.Next(&frame), FramedBuffer::Outcome::kFrame);
  EXPECT_EQ(frame.type, durability::kSnapMeta);
  EXPECT_EQ(frame.payload, expected);
}

TEST(SnapshotStore, EmptyDirFindsNothing) {
  TempDir dir;
  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
  EXPECT_EQ(loaded->skipped, 0);
}

TEST(SnapshotStore, CorruptNewestFallsBackToPreviousValid) {
  TempDir dir;
  ASSERT_TRUE(
      durability::WriteSnapshotFile(dir.path, MakeSnapshot(10)).ok());
  ASSERT_TRUE(
      durability::WriteSnapshotFile(dir.path, MakeSnapshot(20)).ok());

  const std::string newest =
      dir.path + "/" + durability::SnapshotFileName(20);

  // Damage the newest snapshot in three escalating ways; each must fall
  // back to the older valid file and count the skip.
  for (int damage = 0; damage < 3; ++damage) {
    const std::string pristine = ReadAll(newest);
    switch (damage) {
      case 0:  // Bit flip mid-file.
        ASSERT_NO_FATAL_FAILURE(FlipByte(newest, pristine.size() / 2));
        break;
      case 1:  // Torn tail (missing terminator).
        ASSERT_NO_FATAL_FAILURE(TruncateFile(newest, 7));
        break;
      case 2:  // Gutted to nothing.
        WriteAll(newest, "");
        break;
    }
    Result<durability::LoadedSnapshot> loaded =
        durability::LoadLatestSnapshot(dir.path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->found) << "damage " << damage;
    EXPECT_EQ(loaded->contents.meta.covered_seq, 10u);
    EXPECT_EQ(loaded->skipped, 1);
    WriteAll(newest, pristine);  // Restore for the next damage shape.
  }
}

TEST(SnapshotStore, RejectsCoveredSeqFilenameMismatch) {
  TempDir dir;
  ASSERT_TRUE(
      durability::WriteSnapshotFile(dir.path, MakeSnapshot(30)).ok());
  // Rename to a different covered_seq: content no longer matches the
  // name, so the file must be treated as invalid, not trusted.
  const std::string bytes =
      ReadAll(dir.path + "/" + durability::SnapshotFileName(30));
  ASSERT_TRUE(durability::RemoveFile(
                  dir.path + "/" + durability::SnapshotFileName(30))
                  .ok());
  WriteAll(dir.path + "/" + durability::SnapshotFileName(99), bytes);

  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
  EXPECT_EQ(loaded->skipped, 1);
}

// --- Checkpoint format: round-trip property and corruption hardening -------

ExecutorCheckpoint RandomCheckpoint(uint64_t seed) {
  Rng rng(seed);
  ExecutorCheckpoint checkpoint;
  const size_t num_ops = rng.Uniform(1, 3);
  for (size_t o = 0; o < num_ops; ++o) {
    OperatorCheckpoint op;
    op.operator_id = static_cast<int>(o);
    op.next_m = static_cast<int64_t>(rng.Uniform(0, 50));
    op.next_open_start = static_cast<TimeT>(rng.Uniform(0, 1000));
    op.accumulate_ops = rng.Uniform(0, 1 << 20);
    const size_t num_instances = rng.Uniform(0, 3);
    for (size_t i = 0; i < num_instances; ++i) {
      InstanceCheckpoint inst;
      inst.m = op.next_m > 0
                   ? static_cast<int64_t>(
                         rng.Uniform(0, static_cast<uint64_t>(op.next_m)))
                   : 0;
      const size_t num_keys = rng.Uniform(1, 4);
      for (size_t k = 0; k < num_keys; ++k) {
        AggState state;
        state.v1 = rng.UniformReal(-1e6, 1e6);
        state.v2 = rng.UniformReal(0, 1e3);
        state.n = rng.Uniform(0, 100);
        if (rng.Uniform(0, 1) == 1) {
          // Out-of-line (sketch) payload: random bytes.
          const uint32_t ext_size =
              static_cast<uint32_t>(rng.Uniform(1, 64));
          uint8_t* ext = state.EnsureExt(ext_size);
          for (uint32_t b = 0; b < ext_size; ++b) {
            ext[b] = static_cast<uint8_t>(rng.Uniform(0, 255));
          }
        }
        inst.states.push_back(std::move(state));
      }
      op.open_instances.push_back(std::move(inst));
    }
    checkpoint.operators.push_back(std::move(op));
  }
  if (rng.Uniform(0, 1) == 1) {
    checkpoint.reorder.any_seen = true;
    checkpoint.reorder.max_seen = static_cast<TimeT>(rng.Uniform(0, 1000));
    checkpoint.reorder.max_delay = static_cast<TimeT>(rng.Uniform(1, 64));
    checkpoint.reorder.next_seq = rng.Uniform(0, 1 << 16);
    checkpoint.reorder.late_events = rng.Uniform(0, 100);
    checkpoint.reorder.buffer_peak = rng.Uniform(0, 256);
    const size_t buffered = rng.Uniform(0, 5);
    for (size_t i = 0; i < buffered; ++i) {
      BufferedEvent buf;
      buf.seq = rng.Uniform(0, 1 << 16);
      buf.event.timestamp = static_cast<TimeT>(rng.Uniform(0, 1000));
      buf.event.key = static_cast<uint32_t>(rng.Uniform(0, 3));
      buf.event.value = rng.UniformReal(-10, 10);
      checkpoint.reorder.events.push_back(buf);
    }
  }
  return checkpoint;
}

TEST(CheckpointFormat, SerializeDeserializeSerializeIsByteIdentical) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const ExecutorCheckpoint checkpoint = RandomCheckpoint(seed);
    const std::string first = checkpoint.Serialize();
    Result<ExecutorCheckpoint> decoded =
        ExecutorCheckpoint::Deserialize(first);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.status().ToString();
    const std::string second = decoded->Serialize();
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

/// The first RandomCheckpoint from `seed` on that carries both an
/// out-of-line (sketch) payload and an active reorder section, so the
/// sweeps below reach every record type.
std::string FullCheckpointBytes(uint64_t seed) {
  for (;; ++seed) {
    const ExecutorCheckpoint checkpoint = RandomCheckpoint(seed);
    bool any_ext = false;
    for (const OperatorCheckpoint& op : checkpoint.operators) {
      for (const InstanceCheckpoint& inst : op.open_instances) {
        for (const AggState& state : inst.states) {
          any_ext = any_ext || (!state.empty() && state.ext_size() > 0);
        }
      }
    }
    if (any_ext && !checkpoint.reorder.events.empty()) {
      return checkpoint.Serialize();
    }
  }
}

TEST(CheckpointFormat, ByteFlipCorruptionNeverCrashesDeserialize) {
  // Every single-byte flip of a valid checkpoint must come back as a
  // Status or a parseable checkpoint — never a crash, abort, or OOB read
  // (this test is the ASan leg's target).
  const std::string valid = FullCheckpointBytes(12345);
  int parsed = 0;
  int rejected = 0;
  for (size_t at = 0; at < valid.size(); ++at) {
    for (uint8_t mask : {0x01, 0x20, 0x80}) {
      std::string forged = valid;
      forged[at] = static_cast<char>(forged[at] ^ mask);
      Result<ExecutorCheckpoint> result =
          ExecutorCheckpoint::Deserialize(forged);
      if (result.ok()) {
        ++parsed;  // Benign flip (e.g. inside a double): fine.
        (void)result->Serialize();
      } else {
        ++rejected;
      }
    }
  }
  // Sanity: the loop genuinely exercised both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CheckpointFormat, TruncationIsAlwaysRejected) {
  // The layout ends in a record or the reorder-section flag, so no strict
  // prefix of a checkpoint is itself a checkpoint.
  const std::string valid = FullCheckpointBytes(999);
  for (size_t keep = 0; keep < valid.size(); ++keep) {
    EXPECT_FALSE(ExecutorCheckpoint::Deserialize(valid.substr(0, keep)).ok())
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST(CheckpointFormat, TrailingBytesAreRejected) {
  const std::string valid = FullCheckpointBytes(7);
  ASSERT_TRUE(ExecutorCheckpoint::Deserialize(valid).ok());
  Result<ExecutorCheckpoint> padded =
      ExecutorCheckpoint::Deserialize(valid + std::string(1, '\0'));
  ASSERT_FALSE(padded.ok());
  EXPECT_NE(padded.status().message().find("trailing bytes"),
            std::string::npos)
      << padded.status().ToString();
}

/// Expects the bytes in `w` to fail to deserialize, naming `record`.
void ExpectRejectedAt(ByteWriter w, const std::string& record) {
  Result<ExecutorCheckpoint> result = ExecutorCheckpoint::Deserialize(w.Take());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(record), std::string::npos)
      << result.status().ToString();
}

TEST(CheckpointFormat, ForgedCountsFailInsteadOfAllocating) {
  // A forged operator/instance/key/buffered-event count must fail at the
  // first missing record — never reserve the forged size.
  constexpr uint32_t kForged = 0xFFFFFFFF;
  auto header = [](uint32_t num_operators) {
    ByteWriter w;
    w.Bytes("FWCB", 4);
    w.U32(num_operators);
    return w;
  };
  auto operator_record = [](ByteWriter* w, uint32_t num_instances) {
    w->U32(0);
    w->I64(1);
    w->I64(0);
    w->U64(0);
    w->U32(num_instances);
  };
  ExpectRejectedAt(header(kForged), "operator record 0");
  {
    ByteWriter w = header(1);
    operator_record(&w, kForged);
    ExpectRejectedAt(std::move(w), "instance record");
  }
  {
    ByteWriter w = header(1);
    operator_record(&w, 1);
    w.I64(0);
    w.U32(kForged);  // Keys.
    ExpectRejectedAt(std::move(w), "aggregate-state record");
  }
  {
    ByteWriter w = header(0);
    w.U8(1);
    w.U8(1);
    w.I64(10);
    w.I64(2);
    w.U64(1);
    w.U64(0);
    w.U64(1);
    w.U32(kForged);  // Buffered events.
    ExpectRejectedAt(std::move(w), "buffered-event record");
  }
}

// --- Durability-file corruption sweep --------------------------------------

TEST(CorruptionSweep, FlippedDurabilityFilesNeverCrashReaders) {
  // Build a real durability dir (changelog + snapshot), then flip one
  // byte at a time — at every offset of every file — and drive both
  // readers over it. Readers must return, not crash; damage is either
  // detected or provably absorbed (the flip landed in slack the format
  // ignores). Restore the byte after each probe.
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 4;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 32;
    options.durability.fsync_policy = FsyncPolicy::kNone;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
    for (const Event& e : GenerateSyntheticStream(80, 4, 0xC0C0A)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
    // Crash (no Finish): the dir keeps a snapshot and a live segment.
  }
  Result<std::vector<std::string>> names = durability::ListDir(dir.path);
  ASSERT_TRUE(names.ok());
  ASSERT_FALSE(names->empty());
  for (const std::string& name : *names) {
    const std::string path = dir.path + "/" + name;
    const std::string pristine = ReadAll(path);
    for (size_t at = 0; at < pristine.size(); ++at) {
      std::string forged = pristine;
      forged[at] = static_cast<char>(forged[at] ^ 0x10);
      WriteAll(path, forged);
      // Only the pure readers here: a successful Recover would rewrite
      // the directory and pollute the remaining probes.
      std::vector<durability::WalRecord> records;
      if (durability::ReadChangelog(dir.path, 0, &records).ok()) {
        for (const durability::WalRecord& record : records) {
          EventColumns columns;
          uint64_t id = 0;
          StreamQuery query;
          switch (record.type) {
            case durability::kWalEvents:
              (void)durability::DecodeEventsPayload(record.payload,
                                                    &columns);
              break;
            case durability::kWalAddQuery:
              (void)durability::DecodeQueryPayload(record.payload, &id,
                                                   &query);
              break;
            case durability::kWalRemoveQuery:
              (void)durability::DecodeRemoveQueryPayload(record.payload,
                                                         &id);
              break;
            default:  // A flipped type byte fails the CRC first; if a
              break;  // flip forges both, replay rejects the type.
          }
        }
      }
      Result<durability::LoadedSnapshot> loaded =
          durability::LoadLatestSnapshot(dir.path);
      if (loaded.ok() && loaded->found && loaded->contents.has_checkpoint) {
        (void)ExecutorCheckpoint::Deserialize(loaded->contents.checkpoint);
      }
    }
    WriteAll(path, pristine);
  }

  // The sweep restored every byte, so a real recovery still succeeds.
  StreamSession::Options options;
  options.num_keys = 4;
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->session->Finish().ok());
}

// --- Session-level durability ----------------------------------------------

struct Recorded {
  SessionResults results;
  int redelivered = 0;
};

StreamSession::ResultCallback Tagged(Recorded* out, int tag) {
  return [out, tag](const WindowResult& r) {
    auto key = std::make_tuple(tag, r.operator_id, r.start, r.end, r.key);
    auto [it, inserted] = out->results.emplace(key, r.value);
    if (!inserted) {
      // At-least-once re-delivery must be bitwise identical.
      EXPECT_EQ(it->second, r.value) << "re-delivered result differs";
      ++out->redelivered;
    }
  };
}

TEST(SessionDurability, RecoversMidStreamAtDifferentShardCount) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(400, 4, 77);
  const size_t kill_at = 263;

  // Oracle: one uninterrupted 1-shard session over the whole stream.
  Recorded oracle;
  {
    StreamSession session({.num_keys = 4});
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10),
                                 Tagged(&oracle, 0))
                    .ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
    ASSERT_TRUE(session.Finish().ok());
  }

  // Subject: durable session killed mid-stream (destructor, no Finish).
  // Inline (1-shard) so pre-crash delivery is synchronous — the replay
  // re-delivery overlap below is then deterministic (a sharded session
  // may hold recent results undrained in its rings at the kill).
  Recorded subject;
  {
    StreamSession::Options options;
    options.num_keys = 4;
    options.num_shards = 1;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 100;
    StreamSession session(options);
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&subject, 0))
            .ok());
    for (size_t i = 0; i < kill_at; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
  }

  // Recover at a *different* shard count; resume from durable_events.
  StreamSession::Options options;
  options.num_keys = 4;
  options.num_shards = 3;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options,
      [&subject](QueryId, const StreamQuery&) {
        return Tagged(&subject, 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->durable_events, kill_at);
  EXPECT_EQ(recovered->snapshot_events, 200u);
  EXPECT_EQ(recovered->recovered_queries, 1u);
  EXPECT_EQ(recovered->snapshots_skipped, 0);
  // Replay: one changelog record per scalar push past the snapshot.
  EXPECT_EQ(recovered->replayed_records, kill_at - 200);

  StreamSession& session = *recovered->session;
  EXPECT_EQ(session.Stats().events_pushed, kill_at);
  EXPECT_EQ(session.Stats().num_shards, 3u);
  for (size_t i = recovered->durable_events; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());

  EXPECT_EQ(subject.results, oracle.results);
  // The snapshot landed before the kill, so the replayed suffix really
  // re-delivered some window results (the at-least-once window).
  EXPECT_GT(subject.redelivered, 0);
  EXPECT_EQ(session.Stats().events_pushed, events.size());
  EXPECT_EQ(session.Stats().lifetime_ops,
            [&] {
              StreamSession oracle2({.num_keys = 4});
              EXPECT_TRUE(
                  oracle2.AddQuery(MakeQuery("SUM", 20, 10)).ok());
              for (const Event& e : events) {
                EXPECT_TRUE(oracle2.Push(e).ok());
              }
              EXPECT_TRUE(oracle2.Finish().ok());
              return oracle2.Stats().lifetime_ops;
            }());
}

TEST(SessionDurability, RecoverIsIdempotent) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(150, 2, 5);
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("MAX", 30, 30)).ok());
    ASSERT_TRUE(session.AddQuery(MakeQuery("MAX", 60, 20)).ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
  }

  StreamSession::Options options;
  options.num_keys = 2;
  std::vector<QueryId> first_ids;
  uint64_t first_pushed = 0;
  {
    Result<StreamSession::RecoveryInfo> recovered =
        StreamSession::Recover(dir.path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->durable_events, events.size());
    first_ids = recovered->session->QueryIds();
    first_pushed = recovered->session->Stats().events_pushed;
    // Drop the recovered session without pushing anything more.
  }
  Result<StreamSession::RecoveryInfo> again =
      StreamSession::Recover(dir.path, options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->durable_events, events.size());
  // The first recovery snapshotted everything it replayed, so the second
  // starts from that snapshot and replays nothing.
  EXPECT_EQ(again->replayed_records, 0u);
  EXPECT_EQ(again->session->QueryIds(), first_ids);
  EXPECT_EQ(again->session->Stats().events_pushed, first_pushed);
}

TEST(SessionDurability, RecoversChurnAndFinishedSessions) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(200, 2, 9);
  Recorded original;
  QueryId keeper = 0;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    // No periodic snapshots: everything must come back through replay.
    options.durability.snapshot_interval_events = 0;
    StreamSession session(options);
    Result<QueryId> a =
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&original, 0));
    ASSERT_TRUE(a.ok());
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    Result<QueryId> b =
        session.AddQuery(MakeQuery("SUM", 40, 40), Tagged(&original, 1));
    ASSERT_TRUE(b.ok());
    keeper = *b;
    for (size_t i = 100; i < 150; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.RemoveQuery(*a).ok());
    for (size_t i = 150; i < events.size(); ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
  }

  // A finished session recovers from its final snapshot: no replay, no
  // re-delivery, read-only.
  Recorded replayed;
  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options, [&replayed](QueryId id, const StreamQuery&) {
        return Tagged(&replayed, id == 2 ? 1 : 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->replayed_records, 0u);
  EXPECT_EQ(recovered->recovered_queries, 1u);
  EXPECT_EQ(recovered->session->QueryIds(), std::vector<QueryId>{keeper});
  EXPECT_TRUE(recovered->session->finished());
  EXPECT_TRUE(replayed.results.empty());
  Status push = recovered->session->Push({.timestamp = 10'000, .key = 0});
  EXPECT_FALSE(push.ok());
  EXPECT_EQ(recovered->session->Stats().events_pushed, events.size());
}

TEST(SessionDurability, ReplayRedeliversChurnEraResultsExactly) {
  // Same churn schedule as above but killed before Finish, with no
  // snapshots: recovery replays the add/remove records interleaved with
  // the event batches, and the combined output matches the oracle.
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(200, 2, 9);

  Recorded oracle;
  auto run_schedule = [&events](StreamSession& session, Recorded* out,
                                bool finish) {
    Result<QueryId> a =
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(out, 0));
    ASSERT_TRUE(a.ok());
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 40, 40), Tagged(out, 1)).ok());
    for (size_t i = 100; i < 150; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.RemoveQuery(*a).ok());
    for (size_t i = 150; i < events.size(); ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    if (finish) {
      ASSERT_TRUE(session.Finish().ok());
    }
  };
  {
    StreamSession session({.num_keys = 2});
    ASSERT_NO_FATAL_FAILURE(run_schedule(session, &oracle, true));
  }

  Recorded subject;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 0;
    StreamSession session(options);
    ASSERT_NO_FATAL_FAILURE(run_schedule(session, &subject, false));
    // Killed here: replay must rebuild the full churn history.
  }
  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options, [&subject](QueryId id, const StreamQuery&) {
        return Tagged(&subject, id == 2 ? 1 : 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_events, 0u);
  EXPECT_EQ(recovered->durable_events, events.size());
  // 200 event records + 2 adds + 1 remove.
  EXPECT_EQ(recovered->replayed_records, events.size() + 3);
  ASSERT_TRUE(recovered->session->Finish().ok());
  EXPECT_EQ(subject.results, oracle.results);
}

TEST(SessionDurability, FreshSessionRefusesDirWithExistingState) {
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 20)).ok());
    ASSERT_TRUE(session.Push({.timestamp = 1, .key = 0, .value = 1}).ok());
  }
  StreamSession::Options options;
  options.num_keys = 2;
  options.durability.enabled = true;
  options.durability.dir = dir.path;
  StreamSession session(options);
  // The constructor latched the refusal; the first durable operation
  // surfaces it instead of clobbering the previous session's files.
  Result<QueryId> added = session.AddQuery(MakeQuery("SUM", 20, 20));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kAlreadyExists)
      << added.status().ToString();
  EXPECT_NE(added.status().message().find("Recover"), std::string::npos);
  Status pushed = session.Push({.timestamp = 1, .key = 0, .value = 1});
  EXPECT_FALSE(pushed.ok());
  // The ingestion contract wording wraps the durability cause.
  EXPECT_NE(pushed.message().find("ingest stopped at event 0"),
            std::string::npos)
      << pushed.ToString();
}

TEST(SessionDurability, RecoverSurfacesStopPositionOnMidLogDamage) {
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 0;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 20)).ok());
    for (const Event& e : GenerateSyntheticStream(50, 2, 3)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
  }
  // Force the single segment into "older segment" position by writing a
  // successor, then damage the older one mid-stream.
  {
    durability::WalWriter wal;
    // 51 records exist (1 add + 50 events): open the next segment there.
    ASSERT_TRUE(wal.Open(dir.path, 51).ok());
    ASSERT_NO_FATAL_FAILURE(AppendEventRecords(&wal, 1, 10'000));
    ASSERT_TRUE(wal.Close().ok());
  }
  ASSERT_NO_FATAL_FAILURE(
      TruncateFile(dir.path + "/" + durability::SegmentFileName(0), 4));

  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find(
                "recovery stopped at segment 0, record 50"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(SessionDurability, LeftoverTornSegmentAfterInterruptedTruncationRecovers) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(300, 4, 99);
  const size_t kill_at = 263;

  // Oracle: one uninterrupted 1-shard session over the whole stream.
  Recorded oracle;
  {
    StreamSession session({.num_keys = 4});
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&oracle, 0)).ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
    ASSERT_TRUE(session.Finish().ok());
  }

  Recorded subject;
  {
    StreamSession::Options options;
    options.num_keys = 4;
    options.num_shards = 1;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 100;
    StreamSession session(options);
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&subject, 0)).ok());
    for (size_t i = 0; i < kill_at; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
  }
  // Crash shape: the (single, live) newest segment ends in a torn record.
  const std::string torn_name =
      TheFile(dir.path, durability::ParseSegmentFileName);
  ASSERT_FALSE(torn_name.empty()) << "expected exactly one live segment";
  ASSERT_NO_FATAL_FAILURE(TruncateFile(dir.path + "/" + torn_name, 3));
  const std::string torn_bytes = ReadAll(dir.path + "/" + torn_name);

  // Recover #1 publishes a snapshot covering the whole replay (torn tail
  // included) and truncates the old files; the recovered session is then
  // killed again before pushing anything.
  StreamSession::Options options;
  options.num_keys = 4;
  {
    Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
        dir.path, options, [&subject](QueryId, const StreamQuery&) {
          return Tagged(&subject, 0);
        });
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // The torn final record was never durable; its event is re-pushed
    // below.
    EXPECT_EQ(recovered->durable_events, kill_at - 1);
  }
  // Re-inject the old torn segment: the shape truncation leaves behind
  // when it is interrupted (or its unlink fails) after the covering
  // snapshot is durable. No longer the newest segment, but fully
  // covered — recovery must skip it, not brick on "torn non-newest".
  WriteAll(dir.path + "/" + torn_name, torn_bytes);

  options.num_shards = 3;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options, [&subject](QueryId, const StreamQuery&) {
        return Tagged(&subject, 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  StreamSession& session = *recovered->session;
  for (size_t i = recovered->durable_events; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(subject.results, oracle.results);
}

TEST(SessionDurability, CorruptSnapshotBehindTruncationFailsLoudly) {
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
    for (const Event& e : GenerateSyntheticStream(200, 2, 21)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
    ASSERT_GE(session.Stats().snapshots_written, 2u);
  }
  // Corrupt the surviving snapshot. Recovery falls back behind it (here:
  // to nothing), but the changelog head it covered is already truncated;
  // replaying only the surviving segments would silently drop the
  // truncated events, so Recover must fail with the stop-position
  // contract instead.
  const std::string snap_name =
      TheFile(dir.path, durability::ParseSnapshotFileName);
  ASSERT_FALSE(snap_name.empty()) << "expected exactly one snapshot file";
  const std::string snap_path = dir.path + "/" + snap_name;
  ASSERT_NO_FATAL_FAILURE(FlipByte(snap_path, ReadAll(snap_path).size() / 2));

  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(
      recovered.status().message().find("recovery stopped at segment"),
      std::string::npos)
      << recovered.status().ToString();
}

TEST(SessionDurability, RecoverRejectsLegacyTextCheckpoint) {
  TempDir dir;
  StreamSession::Options options;
  options.num_keys = 2;
  {
    StreamSession::Options durable = options;
    durable.durability.enabled = true;
    durable.durability.dir = dir.path;
    durable.durability.snapshot_interval_events = 64;
    durable.durability.fsync_policy = FsyncPolicy::kNone;
    StreamSession session(durable);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
    for (const Event& e : GenerateSyntheticStream(100, 2, 22)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
  }
  // Republish the newest snapshot, intact apart from a checkpoint in the
  // retired text format. The frames all verify, so only the checkpoint
  // decoder can refuse it — and recovery must say so, not fall back.
  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(loaded.ok() && loaded->found && loaded->contents.has_checkpoint);
  durability::SnapshotContents legacy = loaded->contents;
  legacy.checkpoint = "FWCKPT 1 0\n";
  ASSERT_TRUE(durability::WriteSnapshotFile(dir.path, legacy).ok());

  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().message().rfind(
                "snapshot checkpoint rejected: not a binary "
                "ExecutorCheckpoint",
                0),
            0u)
      << recovered.status().ToString();
}

TEST(SessionDurability, RecoverRefusesFingerprintMismatch) {
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 4;
    options.max_delay = 16;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 20)).ok());
    for (const Event& e : GenerateSyntheticStream(40, 4, 8)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
  }
  StreamSession::Options options;
  options.num_keys = 8;  // != 4
  options.max_delay = 16;
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("num_keys"),
            std::string::npos)
      << recovered.status().ToString();

  options.num_keys = 4;
  options.max_delay = 0;  // != 16
  recovered = StreamSession::Recover(dir.path, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("max_delay"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(SessionDurability, SnapshotTruncatesCoveredChangelog) {
  TempDir dir;
  StreamSession::Options options;
  options.num_keys = 2;
  options.durability.enabled = true;
  options.durability.dir = dir.path;
  options.durability.snapshot_interval_events = 64;
  StreamSession session(options);
  ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
  for (const Event& e : GenerateSyntheticStream(300, 2, 21)) {
    ASSERT_TRUE(session.Push(e).ok());
  }

  const StreamSession::SessionStats stats = session.Stats();
  EXPECT_GE(stats.snapshots_written, 4u);
  EXPECT_EQ(stats.wal_records, 301u);  // 1 add + 300 events.
  EXPECT_GT(stats.wal_bytes, 0u);

  // Truncation invariant: exactly one snapshot on disk, and every
  // surviving changelog segment starts at or past what it covers.
  const std::string snap_name =
      TheFile(dir.path, durability::ParseSnapshotFileName);
  ASSERT_FALSE(snap_name.empty()) << "expected exactly one snapshot file";
  uint64_t covered_seq = 0;
  ASSERT_TRUE(
      durability::ParseSnapshotFileName(snap_name, &covered_seq));
  Result<std::vector<std::string>> names = durability::ListDir(dir.path);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    uint64_t base = 0;
    if (durability::ParseSegmentFileName(name, &base)) {
      EXPECT_GE(base, covered_seq) << name << " predates " << snap_name;
    }
  }
}

TEST(SessionDurability, FsyncPoliciesAndCounters) {
  const std::vector<Event> events = GenerateSyntheticStream(64, 2, 31);
  struct PolicyCase {
    FsyncPolicy policy;
    uint64_t interval;
  };
  for (const PolicyCase& pc :
       {PolicyCase{FsyncPolicy::kNone, 4096},
        PolicyCase{FsyncPolicy::kInterval, 16},
        PolicyCase{FsyncPolicy::kEveryBatch, 4096}}) {
    TempDir dir;
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.fsync_policy = pc.policy;
    options.durability.fsync_interval_events = pc.interval;
    StreamSession session(options);
    // The add-query churn record syncs immediately under kInterval.
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 20)).ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
    const StreamSession::SessionStats stats = session.Stats();
    EXPECT_EQ(stats.wal_records, events.size() + 1);
    switch (pc.policy) {
      case FsyncPolicy::kNone:
        EXPECT_EQ(stats.wal_fsyncs, 0u);
        break;
      case FsyncPolicy::kInterval:
        // 1 churn sync + one per full 16-event group.
        EXPECT_EQ(stats.wal_fsyncs, 1 + events.size() / pc.interval);
        break;
      case FsyncPolicy::kEveryBatch:
        EXPECT_EQ(stats.wal_fsyncs, events.size() + 1);
        break;
    }
    // Whatever the policy, the log recovers (process kill loses nothing
    // from the page cache).
    StreamSession::Options ropt;
    ropt.num_keys = 2;
    Result<StreamSession::RecoveryInfo> recovered =
        StreamSession::Recover(dir.path, ropt);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->durable_events, events.size());
  }
}

bool Exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

TEST(SessionDurability, StaleSnapshotTempFilesAreTruncated) {
  // A kill during a snapshot's temp-file write leaves snap-<seq>.fws.tmp
  // behind. Nothing ever reads it, so truncation must delete it once a
  // newer snapshot covers its sequence number.
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(100, 2, 51);
  const std::string stale_early =
      dir.path + "/" + durability::SnapshotTempFileName(3);
  const std::string stale_late =
      dir.path + "/" + durability::SnapshotTempFileName(70);
  StreamSession::Options options;
  options.num_keys = 2;
  options.durability.enabled = true;
  options.durability.dir = dir.path;
  options.durability.snapshot_interval_events = 64;
  {
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_NO_FATAL_FAILURE(WriteAll(stale_early, "torn snapshot"));
    // The 64th event starts the periodic snapshot (covered_seq 65).
    for (size_t i = 10; i < 70; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    const StreamSession::SessionStats stats = session.Stats();
    EXPECT_EQ(stats.snapshots_written, 1u);
    EXPECT_EQ(stats.truncate_failures, 0u);
    EXPECT_FALSE(Exists(stale_early));
    // Killed with a newer leftover in place: Recover's snapshot covers
    // sequence 101, so its truncation deletes this one.
    ASSERT_NO_FATAL_FAILURE(WriteAll(stale_late, "torn snapshot"));
    for (size_t i = 70; i < events.size(); ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
  }
  options.durability = {};
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->durable_events, events.size());
  EXPECT_EQ(recovered->session->Stats().truncate_failures, 0u);
  EXPECT_FALSE(Exists(stale_late));
}

TEST(SessionDurability, BackgroundSnapshotFailureFailStops) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(256, 2, 41);
  Recorded oracle;
  {
    StreamSession session({.num_keys = 2});
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&oracle, 0)).ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
    ASSERT_TRUE(session.Finish().ok());
  }

  // Records: the add (seq 0), then one per 16-event batch. The fourth
  // batch makes the snapshot due at covered_seq 5. A directory squatting
  // on its temp-file name fails the writer's open — and nothing else:
  // the fsync and the roll on the caller thread succeed.
  constexpr size_t kBatch = 16;
  constexpr uint64_t kCoveredSeq = 1 + 64 / kBatch;
  const std::string squatter =
      dir.path + "/" + durability::SnapshotTempFileName(kCoveredSeq);
  ASSERT_EQ(::mkdir(squatter.c_str(), 0755), 0);

  Recorded subject;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    Recorded delivered;
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&delivered, 0))
            .ok());
    for (size_t begin = 0; begin < 64; begin += kBatch) {
      const std::vector<Event> batch(events.begin() + begin,
                                     events.begin() + begin + kBatch);
      ASSERT_TRUE(session.PushBatch(batch).ok());
    }
    // Stats() joins the failed write; the session latches the failure at
    // its next mutation.
    EXPECT_EQ(session.Stats().snapshots_written, 0u);
    Status push = session.Push(events[64]);
    ASSERT_FALSE(push.ok());
    EXPECT_EQ(push.message().rfind("ingest stopped at event 0 (timestamp " +
                                       std::to_string(events[64].timestamp) +
                                       "): open " + squatter,
                                   0),
              0u)
        << push.ToString();
    Result<QueryId> added = session.AddQuery(MakeQuery("SUM", 40, 40));
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(push.message().find(added.status().message()),
              push.message().size() - added.status().message().size());
    // Finish still flushes the failed session's windows; those partial
    // results are not part of the stream recovery resumes.
    subject = delivered;
    EXPECT_EQ(session.Finish(), added.status());
  }

  // Remove the squatter first: no record follows the failed snapshot, so
  // Recover's own snapshot reuses the same temp-file name.
  ASSERT_EQ(::rmdir(squatter.c_str()), 0);
  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options, [&subject](QueryId, const StreamQuery&) {
        return Tagged(&subject, 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_events, 0u);
  EXPECT_EQ(recovered->durable_events, 64u);
  EXPECT_EQ(recovered->replayed_records, kCoveredSeq);
  StreamSession& session = *recovered->session;
  for (size_t i = recovered->durable_events; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(subject.results, oracle.results);
  EXPECT_GT(subject.redelivered, 0);
}

TEST(SessionDurability, RecoverySnapshotFailureFailStops) {
  TempDir dir;
  const std::vector<Event> events = GenerateSyntheticStream(256, 2, 61);
  Recorded oracle;
  {
    StreamSession session({.num_keys = 2});
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&oracle, 0)).ok());
    for (const Event& e : events) ASSERT_TRUE(session.Push(e).ok());
    ASSERT_TRUE(session.Finish().ok());
  }

  // Killed after 100 events: the add (seq 0) and one record per event,
  // with a periodic snapshot at covered_seq 65.
  constexpr size_t kKillAt = 100;
  Recorded subject;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&subject, 0)).ok());
    for (size_t i = 0; i < kKillAt; ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
  }

  // Recover's snapshot covers sequence 101. A directory squatting on its
  // temp-file name fails the writer's open — and nothing else: the
  // resume, the segment fsync and the roll on the caller thread succeed.
  const std::string squatter =
      dir.path + "/" + durability::SnapshotTempFileName(1 + kKillAt);
  ASSERT_EQ(::mkdir(squatter.c_str(), 0755), 0);
  StreamSession::Options options;
  options.num_keys = 2;
  const auto callbacks = [&subject](QueryId, const StreamQuery&) {
    return Tagged(&subject, 0);
  };
  {
    Result<StreamSession::RecoveryInfo> recovered =
        StreamSession::Recover(dir.path, options, callbacks);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->durable_events, kKillAt);
    StreamSession& session = *recovered->session;
    // Stats() joins the failed write; the first mutation latches it.
    EXPECT_EQ(session.Stats().snapshots_written, 0u);
    Status push = session.Push(events[kKillAt]);
    ASSERT_FALSE(push.ok());
    EXPECT_EQ(push.message().rfind(
                  "ingest stopped at event 0 (timestamp " +
                      std::to_string(events[kKillAt].timestamp) +
                      "): open " + squatter,
                  0),
              0u)
        << push.ToString();
  }

  // The failed session logged nothing more, so the second recovery
  // replays the same suffix on top of the periodic snapshot.
  ASSERT_EQ(::rmdir(squatter.c_str()), 0);
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options, callbacks);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_events, 64u);
  EXPECT_EQ(recovered->durable_events, kKillAt);
  EXPECT_EQ(recovered->replayed_records, kKillAt - 64);
  StreamSession& session = *recovered->session;
  for (size_t i = recovered->durable_events; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(subject.results, oracle.results);
  EXPECT_GT(subject.redelivered, 0);
}

TEST(SessionDurability, RecoveryTimersSplitTheRecoverySpan) {
  TempDir dir;
  {
    StreamSession::Options options;
    options.num_keys = 2;
    options.durability.enabled = true;
    options.durability.dir = dir.path;
    options.durability.snapshot_interval_events = 64;
    StreamSession session(options);
    ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
    for (const Event& e : GenerateSyntheticStream(100, 2, 71)) {
      ASSERT_TRUE(session.Push(e).ok());
    }
  }
  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered =
      StreamSession::Recover(dir.path, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const telemetry::MetricsSnapshot telemetry =
      recovered->session->Metrics().telemetry;

  // One sample per stage; together they fit inside the recovery span.
  uint64_t stages_ns = 0;
  for (const char* name :
       {"durability.recovery_load_ns", "durability.recovery_install_ns",
        "durability.recovery_replay_ns", "durability.recovery_handoff_ns"}) {
    auto it = telemetry.histograms.find(name);
    ASSERT_NE(it, telemetry.histograms.end()) << name;
    EXPECT_EQ(it->second.count, 1u) << name;
    stages_ns += it->second.sum;
  }
  int recoveries = 0;
  for (const telemetry::TraceEvent& event : telemetry.trace) {
    if (event.kind != telemetry::TraceKind::kRecovery) continue;
    ++recoveries;
    EXPECT_GT(stages_ns, 0u);
    EXPECT_LE(stages_ns, event.duration_ns);
    EXPECT_EQ(event.a, 100 - 64);  // Records replayed past the snapshot.
  }
  EXPECT_EQ(recoveries, 1);
}

TEST(SessionDurability, DurabilityFailureIsStickyFailStop) {
  TempDir dir;
  StreamSession::Options options;
  options.num_keys = 2;
  options.durability.enabled = true;
  options.durability.dir = dir.path + "/sub";  // Created by the manager.
  StreamSession session(options);
  ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 20)).ok());
  ASSERT_TRUE(session.Push({.timestamp = 1, .key = 0, .value = 1}).ok());

  // Yank the directory out from under the open segment, then force a
  // path that must touch the filesystem again: a churn record (synced
  // immediately) still appends to the open fd, so break the *next*
  // segment roll instead — a snapshot write into the missing dir fails.
  RemoveTree(options.durability.dir);
  Status finished = session.Finish();  // Final snapshot cannot publish.
  ASSERT_FALSE(finished.ok());

  // The failure latched: every later mutation returns it, unchanged.
  Status push = session.Push({.timestamp = 2, .key = 0, .value = 1});
  EXPECT_FALSE(push.ok());
  Result<QueryId> added = session.AddQuery(MakeQuery("SUM", 40, 40));
  EXPECT_FALSE(added.ok());
}

// --- Group commit off the ingest thread ------------------------------------

/// A changelog fsync hook for one test, removed when it goes out of scope
/// (declare it before the sessions it observes). Changelog fsyncs run one
/// at a time, so when one starts the previous one has completed: the
/// probe remembers the bytes that one covered. The `fail_at`-th fsync
/// fails with EIO; every fsync that starts while `hold` is set waits until
/// it is cleared — at most 5 s, so a test that forgets fails instead of
/// hanging.
class SyncProbe {
 public:
  SyncProbe() {
    durability::SetSyncHookForTesting(
        [this](const std::string&, uint64_t bytes) { return OnSync(bytes); });
  }
  ~SyncProbe() { durability::SetSyncHookForTesting(nullptr); }

  /// Waits (at most 2 s) until `count` fsyncs have started.
  bool WaitStarted(int count) const {
    for (int ms = 0; ms < 2000; ++ms) {
      if (started.load() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return started.load() >= count;
  }

  std::atomic<bool> hold{false};
  std::atomic<int> fail_at{0};
  std::atomic<int> started{0};
  /// Bytes the last completed fsync covered.
  std::atomic<uint64_t> covered{0};

 private:
  int OnSync(uint64_t bytes) {
    covered.store(latest_.exchange(bytes));
    const int call = started.fetch_add(1) + 1;
    for (int ms = 0; hold.load() && ms < 5000; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return call == fail_at.load() ? EIO : 0;
  }

  std::atomic<uint64_t> latest_{0};
};

/// A 2-key durable session with one SUM query, group-committing every
/// `group` events, no periodic snapshot.
StreamSession::Options GroupCommitOptions(const std::string& dir,
                                          uint64_t group) {
  StreamSession::Options options;
  options.num_keys = 2;
  options.durability.enabled = true;
  options.durability.dir = dir;
  options.durability.fsync_policy = FsyncPolicy::kInterval;
  options.durability.fsync_interval_events = group;
  options.durability.snapshot_interval_events = 0;
  return options;
}

EventColumns Slice(const std::vector<Event>& events, size_t begin,
                   size_t end) {
  return EventColumns::FromEvents(
      std::vector<Event>(events.begin() + begin, events.begin() + end));
}

/// What one uninterrupted, non-durable session delivers over `events`.
Recorded Uninterrupted(const std::vector<Event>& events) {
  Recorded oracle;
  StreamSession session({.num_keys = 2});
  EXPECT_TRUE(
      session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&oracle, 0)).ok());
  for (const Event& e : events) EXPECT_TRUE(session.Push(e).ok());
  EXPECT_TRUE(session.Finish().ok());
  return oracle;
}

TEST(SessionDurability, HeldGroupCommitBlocksOnlyTheNextGroup) {
  TempDir dir;
  constexpr size_t kBatch = 16;
  constexpr uint64_t kGroup = 4 * kBatch;
  const std::vector<Event> events = GenerateSyntheticStream(8 * kBatch, 2, 81);
  SyncProbe probe;
  StreamSession session(GroupCommitOptions(dir.path, kGroup));
  ASSERT_TRUE(session.AddQuery(MakeQuery("SUM", 20, 10)).ok());
  const auto push_batch = [&](size_t b) {
    return session.PushColumns(Slice(events, b * kBatch, (b + 1) * kBatch));
  };

  // Batch 3 completes the first group; its commit is held in flight.
  probe.hold.store(true);
  std::atomic<bool> returned{false};
  std::atomic<bool> watchdog_fired{false};
  std::thread watchdog([&] {
    // A call that waits for the held commit fails the test after 2 s
    // instead of hanging it.
    for (int ms = 0; ms < 2000 && !returned.load(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!returned.load()) {
      watchdog_fired.store(true);
      probe.hold.store(false);
    }
  });
  for (size_t b = 0; b < 7; ++b) ASSERT_TRUE(push_batch(b).ok()) << b;
  returned.store(true);
  watchdog.join();
  EXPECT_FALSE(watchdog_fired.load())
      << "a call that does not complete a group waited for the commit";
  ASSERT_TRUE(probe.WaitStarted(2));  // The churn sync, then the commit.

  // Batch 7 completes the second group: it waits until the release.
  std::atomic<bool> pushing{false};
  std::atomic<bool> released{false};
  std::thread releaser([&] {
    while (!pushing.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    probe.hold.store(false);
  });
  pushing.store(true);
  ASSERT_TRUE(push_batch(7).ok());
  EXPECT_TRUE(released.load()) << "the group's call did not wait";
  releaser.join();

  // Stats() waits for the second commit: the churn sync plus two.
  EXPECT_EQ(session.Stats().wal_fsyncs, 3u);
  const telemetry::MetricsSnapshot telemetry = session.Metrics().telemetry;
  const auto wait = telemetry.histograms.find("durability.fsync_wait_ns");
  ASSERT_NE(wait, telemetry.histograms.end());
  EXPECT_EQ(wait->second.count, 2u);  // One per group commit.
  EXPECT_GE(wait->second.sum, 10'000'000u) << "the held wait went unrecorded";
  const auto fsync = telemetry.histograms.find("durability.wal_fsync_ns");
  ASSERT_NE(fsync, telemetry.histograms.end());
  EXPECT_EQ(fsync->second.count, 3u);
}

TEST(SessionDurability, FailedGroupCommitFailStops) {
  TempDir dir;
  constexpr size_t kBatch = 16;
  constexpr uint64_t kGroup = 4 * kBatch;
  const std::vector<Event> events = GenerateSyntheticStream(256, 2, 91);
  const Recorded oracle = Uninterrupted(events);

  Recorded subject;
  {
    SyncProbe probe;
    probe.fail_at.store(3);  // The churn sync, group 1, then group 2.
    StreamSession session(GroupCommitOptions(dir.path, kGroup));
    Recorded delivered;
    ASSERT_TRUE(
        session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&delivered, 0))
            .ok());
    for (size_t begin = 0; begin < 2 * kGroup; begin += kBatch) {
      ASSERT_TRUE(session.PushColumns(Slice(events, begin, begin + kBatch))
                      .ok());
    }
    // Stats() waits for the failed commit; the session latches the
    // failure at its next mutation, in the ingest wording.
    EXPECT_EQ(session.Stats().wal_fsyncs, 2u);
    const size_t next = 2 * kGroup;
    Status push =
        session.PushColumns(Slice(events, next, next + kBatch));
    ASSERT_FALSE(push.ok());
    const std::string segment =
        dir.path + "/" + durability::SegmentFileName(0);
    EXPECT_EQ(push.message().rfind(
                  "ingest stopped at event 0 (timestamp " +
                      std::to_string(events[next].timestamp) + "): fsync " +
                      segment + ": " + std::strerror(EIO),
                  0),
              0u)
        << push.ToString();
    Result<QueryId> added = session.AddQuery(MakeQuery("SUM", 40, 40));
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(push.message().find(added.status().message()),
              push.message().size() - added.status().message().size());
    subject = delivered;
    EXPECT_EQ(session.Finish(), added.status());
  }

  // The failed session's records stayed in the page cache: with the hook
  // removed, Recover replays all of them and the resumed run is exact.
  StreamSession::Options options;
  options.num_keys = 2;
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir.path, options, [&subject](QueryId, const StreamQuery&) {
        return Tagged(&subject, 0);
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->durable_events, 2 * kGroup);
  EXPECT_EQ(recovered->replayed_records, 1 + 2 * kGroup / kBatch);
  StreamSession& session = *recovered->session;
  for (size_t i = recovered->durable_events; i < events.size(); ++i) {
    ASSERT_TRUE(session.Push(events[i]).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(subject.results, oracle.results);
  EXPECT_GT(subject.redelivered, 0);
}

TEST(SessionDurability, HostCrashLosesFewerThanTwoGroups) {
  constexpr uint64_t kGroup = 64;
  const std::vector<Event> events = GenerateSyntheticStream(400, 2, 101);
  const Recorded oracle = Uninterrupted(events);
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{24}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    TempDir dir;
    TempDir copy;
    Recorded subject;
    size_t admitted = 0;
    size_t durable_at_crash = 0;
    {
      SyncProbe probe;
      StreamSession session(GroupCommitOptions(dir.path, kGroup));
      ASSERT_TRUE(
          session.AddQuery(MakeQuery("SUM", 20, 10), Tagged(&subject, 0))
              .ok());
      // Pushes one batch; returns whether it completed a group.
      uint64_t since_commit = 0;
      const auto push = [&]() {
        EXPECT_TRUE(
            session.PushColumns(Slice(events, admitted, admitted + batch))
                .ok());
        admitted += batch;
        since_commit += batch;
        if (since_commit < kGroup) return false;
        since_commit = 0;
        return true;
      };
      while (!push()) {
      }
      // Stats() waits for group 1's commit, so only group 2's is held.
      durable_at_crash = admitted;
      EXPECT_EQ(session.Stats().wal_fsyncs, 2u);
      probe.hold.store(true);
      while (!push()) {
      }
      // Group 2's commit is held in flight; fill group 3 up to the batch
      // that would complete it (and wait for the held commit).
      while (since_commit + batch < kGroup) push();
      ASSERT_TRUE(probe.WaitStarted(3));  // Churn, group 1, group 2.

      // The host crash: a copy of the directory whose segment keeps only
      // what the last completed fsync covered.
      const std::string name = durability::SegmentFileName(0);
      const std::string bytes = ReadAll(dir.path + "/" + name);
      ASSERT_LE(probe.covered.load(), bytes.size());
      ASSERT_NO_FATAL_FAILURE(WriteAll(
          copy.path + "/" + name, bytes.substr(0, probe.covered.load())));
      probe.hold.store(false);
    }

    StreamSession::Options options;
    options.num_keys = 2;
    Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
        copy.path, options, [&subject](QueryId, const StreamQuery&) {
          return Tagged(&subject, 0);
        });
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const uint64_t durable = recovered->durable_events;
    EXPECT_EQ(durable, durable_at_crash);
    // The bound: fewer than 2 × (fsync_interval_events + one batch) lost,
    // and more than one group — the commit in flight — really was.
    EXPECT_LT(admitted - durable, 2 * (kGroup + batch));
    EXPECT_GE(admitted - durable, kGroup);
    StreamSession& session = *recovered->session;
    for (size_t i = durable; i < events.size(); ++i) {
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_EQ(subject.results, oracle.results);
  }
}

}  // namespace
}  // namespace fw
