#ifndef FW_DURABILITY_WAL_H_
#define FW_DURABILITY_WAL_H_

// The write-ahead changelog (DESIGN.md §16): a sequence of CRC32C-framed
// records split across segment files `wal-<base_seq>.log`, where
// base_seq is the global sequence number of the segment's first record.
// A record's sequence number is implicit — base_seq plus its index in
// the segment — so replay can skip everything a snapshot already covers
// at record granularity (snapshots are only taken between records).
//
// Record types:
//   kWalEvents       an admitted event batch, columnar (count, then the
//                    timestamp/key/value-bits arrays)
//   kWalAddQuery     a successful AddQuery: assigned id + the structural
//                    query (source, aggregate name, columns, windows)
//   kWalRemoveQuery  a successful RemoveQuery: the id
//
// Resizes are deliberately not logged: the shard count never affects
// emitted results (the elasticity invariant), so recovery is free to
// restore into any width.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "durability/framed_io.h"
#include "exec/columns.h"
#include "query/query.h"

namespace fw {
namespace durability {

inline constexpr uint8_t kWalEvents = 1;
inline constexpr uint8_t kWalAddQuery = 2;
inline constexpr uint8_t kWalRemoveQuery = 3;

/// "wal-<base_seq, zero-padded>.log" — zero padding keeps lexicographic
/// and numeric order identical.
std::string SegmentFileName(uint64_t base_seq);
bool ParseSegmentFileName(std::string_view name, uint64_t* base_seq);

/// "snap-<covered_seq, zero-padded>.fws" (the snapshot store shares the
/// naming scheme so one directory listing serves both).
std::string SnapshotFileName(uint64_t covered_seq);
bool ParseSnapshotFileName(std::string_view name, uint64_t* covered_seq);
/// "snap-<covered_seq, zero-padded>.fws.tmp": a snapshot being written,
/// published by renaming it to SnapshotFileName. A leftover from a kill
/// mid-write is never read; truncation deletes it.
std::string SnapshotTempFileName(uint64_t covered_seq);
bool ParseSnapshotTempFileName(std::string_view name, uint64_t* covered_seq);

// Payload codecs (common/codec.h wire format). The events encoder
// overwrites `out`, reusing its storage across records.
void EncodeEventsPayload(const EventColumns& columns, std::string* out);
Status DecodeEventsPayload(std::string_view payload, EventColumns* out);
std::string EncodeQueryPayload(uint64_t id, const StreamQuery& query);
/// Resolves the aggregate by registered name; unknown names fail with a
/// descriptive Status (register the UDAF before recovering).
Status DecodeQueryPayload(std::string_view payload, uint64_t* id,
                          StreamQuery* query);
std::string EncodeRemoveQueryPayload(uint64_t id);
Status DecodeRemoveQueryPayload(std::string_view payload, uint64_t* id);

/// Where the newest changelog segment ends: its base, its whole records
/// and the byte offset just past the last of them (a torn tail, if any,
/// starts there). ReadChangelog reports it; recovery continues the
/// segment from there (WalWriter::Resume).
struct SegmentTail {
  uint64_t base = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;

  uint64_t end_seq() const { return base + records; }
};

/// Appends records to the changelog. Single-threaded; owned by
/// DurabilityManager.
class WalWriter {
 public:
  /// Starts a fresh segment whose first record will be `next_seq`.
  Status Open(const std::string& dir, uint64_t next_seq);
  /// Continues the existing segment `tail` describes after its last
  /// whole record, cutting any torn tail; the next record gets
  /// tail.end_seq().
  Status Resume(const std::string& dir, const SegmentTail& tail);
  Status Append(uint8_t type, std::string_view payload);
  /// The fsync of everything appended so far, for SyncChangelog on any
  /// thread. The first one into each new or resumed segment also fsyncs
  /// the directory, so the segment's entry is durable with its records.
  ChangelogSync PrepareSync();
  /// SyncChangelog(PrepareSync()) on the calling thread.
  Status Sync();
  /// Closes the current segment and starts a new one at next_seq().
  Status Roll();
  Status Close();

  uint64_t next_seq() const { return next_seq_; }
  uint64_t segment_base() const { return segment_base_; }
  /// True while the open segment holds no record.
  bool segment_empty() const { return next_seq_ == segment_base_; }
  uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  std::string dir_;
  uint64_t next_seq_ = 0;
  uint64_t segment_base_ = 0;
  /// Whether a prepared fsync of the open segment already carries the
  /// directory fsync.
  bool dir_synced_ = false;
  FramedFileWriter writer_;
};

/// One decoded changelog record plus where it came from (for replay
/// error wording: "recovery stopped at segment S, record R").
struct WalRecord {
  uint64_t seq = 0;
  uint64_t segment_base = 0;
  uint64_t index_in_segment = 0;
  uint8_t type = 0;
  std::string payload;
};

/// Reads every record with seq >= start_seq, in sequence order, across
/// all segments in `dir`. Torn-tail rule: an invalid frame in the
/// *newest* segment ends the log cleanly there (the expected shape of a
/// crash mid-append); an invalid frame in any older segment that could
/// still hold replayable records — or a gap between such segments — is
/// real corruption and fails with "recovery stopped at segment S,
/// record R: <cause>". Two snapshot-coverage rules make interrupted
/// truncation harmless and snapshot fallback loud: a segment whose
/// entire range predates start_seq is skipped without reading (a
/// leftover from an interrupted truncation may carry an old torn tail),
/// and a changelog whose smallest base is *past* start_seq fails with
/// the same stop-position wording (its missing head was truncated by a
/// snapshot that is no longer the one being restored).
///
/// When `newest_tail` is given, it receives where the newest segment
/// ends (that segment is always read, never skipped), or nullopt when
/// `dir` holds no segment.
Status ReadChangelog(const std::string& dir, uint64_t start_seq,
                     std::vector<WalRecord>* out,
                     std::optional<SegmentTail>* newest_tail = nullptr);

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_WAL_H_
