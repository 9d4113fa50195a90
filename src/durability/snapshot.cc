#include "durability/snapshot.h"

#include <algorithm>

#include "common/codec.h"
#include "durability/framed_io.h"
#include "durability/wal.h"

namespace fw {
namespace durability {

namespace {

/// A watermark travels as its value and a validity byte; kNoWatermark as
/// 0 and 0.
void PutWatermark(ByteWriter* w, TimeT watermark) {
  const bool valid = watermark != kNoWatermark;
  w->I64(valid ? watermark : 0);
  w->U8(valid ? 1 : 0);
}

bool GetWatermark(ByteReader* r, TimeT* watermark) {
  uint8_t valid = 0;
  if (!r->I64(watermark) || !r->U8(&valid)) return false;
  if (valid == 0) *watermark = kNoWatermark;
  return true;
}

std::string EncodeMeta(const SnapshotMeta& meta) {
  ByteWriter w;
  w.U32(meta.format_version);
  w.U64(meta.covered_seq);
  w.U64(meta.covered_events);
  w.U32(meta.num_keys);
  w.I64(meta.max_delay);
  w.U8(meta.late_policy);
  w.U8(meta.finished);
  w.U64(meta.events_pushed);
  w.U64(meta.events_dropped);
  w.I64(meta.replans);
  w.I64(meta.drift_replans);
  w.U64(meta.resize_count);
  w.U64(meta.next_id);
  PutWatermark(&w, meta.watermark);
  w.U64(meta.retired_ops);
  w.U64(meta.retired_late);
  w.U64(meta.retired_reorder_peak);
  w.U64(meta.retired_closes_total);
  w.U64(meta.retired_finalizes_total);
  PutWatermark(&w, meta.retired_watermark);
  w.F64(meta.planned_eta);
  return w.Take();
}

Status DecodeMeta(std::string_view payload, SnapshotMeta* meta) {
  ByteReader r(payload);
  if (!r.U32(&meta->format_version)) {
    return Status::InvalidArgument("short snapshot meta");
  }
  if (meta->format_version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(meta->format_version));
  }
  if (!r.U64(&meta->covered_seq) || !r.U64(&meta->covered_events) ||
      !r.U32(&meta->num_keys) || !r.I64(&meta->max_delay) ||
      !r.U8(&meta->late_policy) || !r.U8(&meta->finished) ||
      !r.U64(&meta->events_pushed) || !r.U64(&meta->events_dropped) ||
      !r.I64(&meta->replans) || !r.I64(&meta->drift_replans) ||
      !r.U64(&meta->resize_count) || !r.U64(&meta->next_id) ||
      !GetWatermark(&r, &meta->watermark) || !r.U64(&meta->retired_ops) ||
      !r.U64(&meta->retired_late) || !r.U64(&meta->retired_reorder_peak) ||
      !r.U64(&meta->retired_closes_total) ||
      !r.U64(&meta->retired_finalizes_total) ||
      !GetWatermark(&r, &meta->retired_watermark) ||
      !r.F64(&meta->planned_eta) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed snapshot meta");
  }
  return Status::OK();
}

/// Parses and validates one snapshot file image. All-or-nothing: any
/// framing damage, decode failure, or missing kSnapEnd terminator
/// invalidates the whole file.
Status ParseSnapshot(std::string bytes, SnapshotContents* contents) {
  FramedBuffer frames(std::move(bytes));
  Frame frame;
  bool saw_meta = false;
  bool saw_end = false;
  *contents = SnapshotContents();
  for (;;) {
    const FramedBuffer::Outcome outcome = frames.Next(&frame);
    if (outcome == FramedBuffer::Outcome::kTorn) {
      return Status::InvalidArgument(frames.torn_detail());
    }
    if (outcome == FramedBuffer::Outcome::kEnd) break;
    if (saw_end) {
      return Status::InvalidArgument("frame after snapshot terminator");
    }
    switch (frame.type) {
      case kSnapMeta:
        if (saw_meta) {
          return Status::InvalidArgument("duplicate snapshot meta frame");
        }
        FW_RETURN_IF_ERROR(DecodeMeta(frame.payload, &contents->meta));
        saw_meta = true;
        break;
      case kSnapQuery: {
        SnapshotQuery query;
        FW_RETURN_IF_ERROR(
            DecodeQueryPayload(frame.payload, &query.id, &query.query));
        contents->queries.push_back(std::move(query));
        break;
      }
      case kSnapCheckpoint:
        if (contents->has_checkpoint) {
          return Status::InvalidArgument("duplicate checkpoint frame");
        }
        contents->checkpoint = std::move(frame.payload);
        contents->has_checkpoint = true;
        break;
      case kSnapEnd:
        if (!frame.payload.empty()) {
          return Status::InvalidArgument("non-empty snapshot terminator");
        }
        saw_end = true;
        break;
      default:
        return Status::InvalidArgument("unknown snapshot frame type " +
                                       std::to_string(frame.type));
    }
  }
  if (!saw_meta) return Status::InvalidArgument("snapshot has no meta frame");
  if (!saw_end) {
    return Status::InvalidArgument(
        "snapshot has no terminator frame (truncated?)");
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshotFile(
    const std::string& dir, const SnapshotContents& contents,
    const std::function<bool(SnapshotStage)>& proceed) {
  const auto reached = [&proceed](SnapshotStage stage) {
    if (!proceed || proceed(stage)) return Status::OK();
    return Status::Internal("snapshot write stopped at stage " +
                            std::to_string(static_cast<int>(stage)));
  };
  const std::string final_name = SnapshotFileName(contents.meta.covered_seq);
  const std::string tmp_path = dir + "/" + SnapshotTempFileName(
                                               contents.meta.covered_seq);
  FramedFileWriter writer;
  FW_RETURN_IF_ERROR(writer.Open(tmp_path));
  FW_RETURN_IF_ERROR(writer.Append(kSnapMeta, EncodeMeta(contents.meta)));
  FW_RETURN_IF_ERROR(reached(SnapshotStage::kTempPartial));
  for (const SnapshotQuery& query : contents.queries) {
    FW_RETURN_IF_ERROR(
        writer.Append(kSnapQuery, EncodeQueryPayload(query.id, query.query)));
  }
  if (contents.has_checkpoint) {
    FW_RETURN_IF_ERROR(writer.Append(kSnapCheckpoint, contents.checkpoint));
  }
  FW_RETURN_IF_ERROR(writer.Append(kSnapEnd, std::string_view()));
  // The terminator is only meaningful if it is durable before the rename
  // publishes the file.
  FW_RETURN_IF_ERROR(writer.Sync());
  FW_RETURN_IF_ERROR(writer.Close());
  FW_RETURN_IF_ERROR(reached(SnapshotStage::kTempSynced));
  FW_RETURN_IF_ERROR(RenameFile(tmp_path, dir + "/" + final_name));
  FW_RETURN_IF_ERROR(reached(SnapshotStage::kRenamed));
  return SyncDir(dir);
}

Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseSnapshotFileName(name, &seq)) seqs.push_back(seq);
  }
  // Newest first: the first file that validates wins; invalid newer
  // files (torn by a crash mid-publish, or bit-damaged) are skipped back
  // over.
  std::sort(seqs.rbegin(), seqs.rend());

  LoadedSnapshot loaded;
  for (uint64_t seq : seqs) {
    const std::string path = dir + "/" + SnapshotFileName(seq);
    std::string bytes;
    Status read = ReadFileBytes(path, &bytes);
    if (!read.ok()) {
      ++loaded.skipped;
      continue;
    }
    SnapshotContents contents;
    Status parsed = ParseSnapshot(std::move(bytes), &contents);
    if (!parsed.ok() || contents.meta.covered_seq != seq) {
      ++loaded.skipped;
      continue;
    }
    loaded.found = true;
    loaded.contents = std::move(contents);
    loaded.path = path;
    return loaded;
  }
  return loaded;
}

}  // namespace durability
}  // namespace fw
