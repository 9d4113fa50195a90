#include "durability/wal.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/codec.h"

namespace fw {
namespace durability {

namespace {

std::string PaddedSeq(uint64_t seq) {
  std::string digits = std::to_string(seq);
  return std::string(20 - std::min<size_t>(20, digits.size()), '0') + digits;
}

bool ParseNamed(std::string_view name, std::string_view prefix,
                std::string_view suffix, uint64_t* seq) {
  if (name.size() != prefix.size() + 20 + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  const std::string digits(name.substr(prefix.size(), 20));
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  *seq = std::strtoull(digits.c_str(), &end, 10);
  return end == digits.c_str() + digits.size();
}

}  // namespace

std::string SegmentFileName(uint64_t base_seq) {
  return "wal-" + PaddedSeq(base_seq) + ".log";
}

bool ParseSegmentFileName(std::string_view name, uint64_t* base_seq) {
  return ParseNamed(name, "wal-", ".log", base_seq);
}

std::string SnapshotFileName(uint64_t covered_seq) {
  return "snap-" + PaddedSeq(covered_seq) + ".fws";
}

bool ParseSnapshotFileName(std::string_view name, uint64_t* covered_seq) {
  return ParseNamed(name, "snap-", ".fws", covered_seq);
}

std::string SnapshotTempFileName(uint64_t covered_seq) {
  return SnapshotFileName(covered_seq) + ".tmp";
}

bool ParseSnapshotTempFileName(std::string_view name, uint64_t* covered_seq) {
  return ParseNamed(name, "snap-", ".fws.tmp", covered_seq);
}

void EncodeEventsPayload(const EventColumns& columns, std::string* out) {
  out->clear();
  ByteWriter w(std::move(*out));
  w.U32(static_cast<uint32_t>(columns.size()));
  for (TimeT t : columns.timestamps) w.I64(t);
  for (uint32_t k : columns.keys) w.U32(k);
  for (double v : columns.values) w.F64(v);
  *out = w.Take();
}

Status DecodeEventsPayload(std::string_view payload, EventColumns* out) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Status::InvalidArgument("short events record");
  // Bound the allocation by what the payload can actually hold (8 + 4 + 8
  // bytes per event) before trusting the count.
  if (static_cast<uint64_t>(count) * 20 != r.remaining()) {
    return Status::InvalidArgument(
        "events record length mismatch: count " + std::to_string(count) +
        " vs " + std::to_string(r.remaining()) + " payload bytes");
  }
  out->clear();
  out->Reserve(count);
  out->timestamps.resize(count);
  out->keys.resize(count);
  out->values.resize(count);
  for (uint32_t i = 0; i < count; ++i) r.I64(&out->timestamps[i]);
  for (uint32_t i = 0; i < count; ++i) r.U32(&out->keys[i]);
  for (uint32_t i = 0; i < count; ++i) r.F64(&out->values[i]);
  if (!r.AtEnd()) return Status::InvalidArgument("malformed events record");
  return Status::OK();
}

std::string EncodeQueryPayload(uint64_t id, const StreamQuery& query) {
  ByteWriter w;
  w.U64(id);
  w.Str(query.source);
  w.Str(query.agg != nullptr ? query.agg->name : std::string());
  w.Str(query.value_column);
  w.U8(query.per_key ? 1 : 0);
  w.Str(query.key_column);
  w.U32(static_cast<uint32_t>(query.windows.size()));
  for (const Window& window : query.windows.windows()) {
    w.I64(window.range());
    w.I64(window.slide());
  }
  return w.Take();
}

Status DecodeQueryPayload(std::string_view payload, uint64_t* id,
                          StreamQuery* query) {
  ByteReader r(payload);
  std::string agg_name;
  uint8_t per_key = 0;
  uint32_t num_windows = 0;
  *query = StreamQuery();
  if (!r.U64(id) || !r.Str(&query->source) || !r.Str(&agg_name) ||
      !r.Str(&query->value_column) || !r.U8(&per_key) ||
      !r.Str(&query->key_column) || !r.U32(&num_windows)) {
    return Status::InvalidArgument("malformed query record");
  }
  query->per_key = per_key != 0;
  query->agg = FindAggregate(agg_name);
  if (query->agg == nullptr) {
    return Status::NotFound("query aggregates unregistered function '" +
                            agg_name + "'; register the UDAF before "
                            "recovering");
  }
  for (uint32_t i = 0; i < num_windows; ++i) {
    int64_t range = 0;
    int64_t slide = 0;
    if (!r.I64(&range) || !r.I64(&slide)) {
      return Status::InvalidArgument("malformed query window record");
    }
    FW_RETURN_IF_ERROR(query->windows.Add(Window(range, slide)));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed query record");
  return Status::OK();
}

std::string EncodeRemoveQueryPayload(uint64_t id) {
  ByteWriter w;
  w.U64(id);
  return w.Take();
}

Status DecodeRemoveQueryPayload(std::string_view payload, uint64_t* id) {
  ByteReader r(payload);
  if (!r.U64(id) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed remove-query record");
  }
  return Status::OK();
}

Status WalWriter::Open(const std::string& dir, uint64_t next_seq) {
  dir_ = dir;
  next_seq_ = next_seq;
  segment_base_ = next_seq;
  dir_synced_ = false;
  return writer_.Open(dir_ + "/" + SegmentFileName(segment_base_));
}

Status WalWriter::Resume(const std::string& dir, const SegmentTail& tail) {
  dir_ = dir;
  next_seq_ = tail.end_seq();
  segment_base_ = tail.base;
  dir_synced_ = false;
  return writer_.Resume(dir_ + "/" + SegmentFileName(segment_base_),
                        tail.bytes);
}

Status WalWriter::Append(uint8_t type, std::string_view payload) {
  FW_RETURN_IF_ERROR(writer_.Append(type, payload));
  ++next_seq_;
  return Status::OK();
}

ChangelogSync WalWriter::PrepareSync() {
  ChangelogSync sync{writer_.fd(), writer_.path(), writer_.bytes_written(),
                     dir_synced_ ? std::string() : dir_};
  dir_synced_ = true;
  return sync;
}

Status WalWriter::Sync() { return SyncChangelog(PrepareSync()); }

Status WalWriter::Roll() {
  FW_RETURN_IF_ERROR(writer_.Close());
  segment_base_ = next_seq_;
  dir_synced_ = false;
  return writer_.Open(dir_ + "/" + SegmentFileName(segment_base_));
}

Status WalWriter::Close() { return writer_.Close(); }

Status ReadChangelog(const std::string& dir, uint64_t start_seq,
                     std::vector<WalRecord>* out,
                     std::optional<SegmentTail>* newest_tail) {
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> bases;
  for (const std::string& name : *names) {
    uint64_t base = 0;
    if (ParseSegmentFileName(name, &base)) bases.push_back(base);
  }
  std::sort(bases.begin(), bases.end());

  out->clear();
  if (newest_tail != nullptr) newest_tail->reset();
  if (bases.empty()) return Status::OK();
  // A changelog that begins past start_seq has a leading hole: the
  // segments holding [start_seq, bases[0]) were truncated by a newer
  // snapshot that later failed validation, so recovery fell back behind
  // the truncation point. Replaying over the hole would silently drop
  // those events — refuse instead.
  if (bases[0] > start_seq) {
    return Status::Internal(
        "recovery stopped at segment " + std::to_string(bases[0]) +
        ", record 0: changelog begins after the snapshot's coverage "
        "(replay needs sequence " + std::to_string(start_seq) +
        "; the segments below were truncated by a snapshot that is no "
        "longer valid)");
  }
  bool read_any = false;
  uint64_t expected_next = start_seq;
  for (size_t s = 0; s < bases.size(); ++s) {
    const uint64_t base = bases[s];
    const bool newest = s + 1 == bases.size();
    // A segment whose entire range [base, next base) predates start_seq
    // contributes nothing to replay: skip it without reading. Such
    // segments only linger when truncation was interrupted (crash
    // between the covering snapshot's publish and the unlink, or an
    // unlink failure), and the leftover may carry the previous crash's
    // torn tail — fully covered, it must not fail recovery.
    if (!newest && bases[s + 1] <= start_seq) continue;
    if (read_any && base != expected_next) {
      return Status::Internal(
          "recovery stopped at segment " + std::to_string(base) +
          ", record 0: segment sequence gap (previous segment ended at " +
          std::to_string(expected_next) + ")");
    }
    std::string bytes;
    FW_RETURN_IF_ERROR(ReadFileBytes(dir + "/" + SegmentFileName(base),
                                     &bytes));
    FramedBuffer frames(std::move(bytes));
    Frame frame;
    uint64_t index = 0;
    for (;;) {
      const FramedBuffer::Outcome outcome = frames.Next(&frame);
      if (outcome == FramedBuffer::Outcome::kEnd) break;
      if (outcome == FramedBuffer::Outcome::kTorn) {
        // A torn or bit-damaged tail in the newest segment is the
        // expected shape of a crash mid-append: the log ends at the last
        // whole record. Anywhere earlier it means records after the
        // damage would be silently skipped — refuse instead.
        if (newest) break;
        return Status::Internal(
            "recovery stopped at segment " + std::to_string(base) +
            ", record " + std::to_string(index) + ": " +
            frames.torn_detail());
      }
      const uint64_t seq = base + index;
      if (seq >= start_seq) {
        WalRecord record;
        record.seq = seq;
        record.segment_base = base;
        record.index_in_segment = index;
        record.type = frame.type;
        record.payload = std::move(frame.payload);
        out->push_back(std::move(record));
      }
      ++index;
    }
    expected_next = base + index;
    read_any = true;
    if (newest && newest_tail != nullptr) {
      *newest_tail = SegmentTail{base, index, frames.position()};
    }
  }
  return Status::OK();
}

}  // namespace durability
}  // namespace fw
