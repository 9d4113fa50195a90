#include "exec/checkpoint.h"

#include <string_view>

#include "common/codec.h"

namespace fw {

namespace {

// Leads every checkpoint; any other prefix (the retired text format's
// included) is rejected before a single count is trusted.
constexpr std::string_view kMagic = "FWCB";

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed binary ExecutorCheckpoint: " +
                                 what);
}

}  // namespace

std::string ExecutorCheckpoint::Serialize() const {
  ByteWriter w;
  w.Bytes(kMagic.data(), kMagic.size());
  w.U32(static_cast<uint32_t>(operators.size()));
  for (const OperatorCheckpoint& op : operators) {
    w.U32(static_cast<uint32_t>(op.operator_id));
    w.I64(op.next_m);
    w.I64(op.next_open_start);
    w.U64(op.accumulate_ops);
    w.U32(static_cast<uint32_t>(op.open_instances.size()));
    for (const InstanceCheckpoint& inst : op.open_instances) {
      w.I64(inst.m);
      w.U32(static_cast<uint32_t>(inst.states.size()));
      for (const AggState& s : inst.states) EncodeAggState(s, &w);
    }
  }
  w.U8(reorder.Inactive() ? 0 : 1);
  if (!reorder.Inactive()) {
    w.U8(reorder.any_seen ? 1 : 0);
    w.I64(reorder.max_seen);
    w.I64(reorder.max_delay);
    w.U64(reorder.next_seq);
    w.U64(reorder.late_events);
    w.U64(reorder.buffer_peak);
    w.U32(static_cast<uint32_t>(reorder.events.size()));
    for (const BufferedEvent& buffered : reorder.events) {
      w.U64(buffered.seq);
      w.I64(buffered.event.timestamp);
      w.U32(buffered.event.key);
      w.F64(buffered.event.value);
    }
  }
  return w.Take();
}

Result<ExecutorCheckpoint> ExecutorCheckpoint::Deserialize(
    const std::string& bytes) {
  ByteReader r(bytes);
  std::string_view magic;
  if (!r.Bytes(kMagic.size(), &magic) || magic != kMagic) {
    return Status::InvalidArgument(
        "not a binary ExecutorCheckpoint (bad magic)");
  }
  ExecutorCheckpoint checkpoint;
  // No reserve from unvalidated counts anywhere below: a forged count
  // must fail at the first missing record, not ask the allocator for the
  // forged size (and throw out of the Result API).
  uint32_t num_operators = 0;
  if (!r.U32(&num_operators)) return Malformed("truncated header");
  for (uint32_t i = 0; i < num_operators; ++i) {
    OperatorCheckpoint op;
    uint32_t operator_id = 0;
    uint32_t num_instances = 0;
    if (!r.U32(&operator_id) || !r.I64(&op.next_m) ||
        !r.I64(&op.next_open_start) || !r.U64(&op.accumulate_ops) ||
        !r.U32(&num_instances)) {
      return Malformed("truncated operator record " + std::to_string(i));
    }
    op.operator_id = static_cast<int>(operator_id);
    for (uint32_t j = 0; j < num_instances; ++j) {
      InstanceCheckpoint inst;
      uint32_t num_keys = 0;
      if (!r.I64(&inst.m) || !r.U32(&num_keys)) {
        return Malformed("truncated instance record");
      }
      for (uint32_t k = 0; k < num_keys; ++k) {
        AggState s;
        FW_RETURN_IF_ERROR(DecodeAggState(&r, &s));
        inst.states.push_back(std::move(s));
      }
      op.open_instances.push_back(std::move(inst));
    }
    checkpoint.operators.push_back(std::move(op));
  }
  uint8_t has_reorder = 0;
  if (!r.U8(&has_reorder) || has_reorder > 1) {
    return Malformed("missing reorder-section flag");
  }
  if (has_reorder == 1) {
    ReorderCheckpoint& reorder = checkpoint.reorder;
    uint8_t any_seen = 0;
    uint32_t num_buffered = 0;
    if (!r.U8(&any_seen) || any_seen > 1 || !r.I64(&reorder.max_seen) ||
        !r.I64(&reorder.max_delay) || !r.U64(&reorder.next_seq) ||
        !r.U64(&reorder.late_events) || !r.U64(&reorder.buffer_peak) ||
        !r.U32(&num_buffered)) {
      return Malformed("truncated reorder record");
    }
    reorder.any_seen = any_seen == 1;
    for (uint32_t i = 0; i < num_buffered; ++i) {
      BufferedEvent buffered;
      if (!r.U64(&buffered.seq) || !r.I64(&buffered.event.timestamp) ||
          !r.U32(&buffered.event.key) || !r.F64(&buffered.event.value)) {
        return Malformed("truncated buffered-event record");
      }
      reorder.events.push_back(buffered);
    }
    // Serialize omits an inactive section, so a flagged-but-inactive one
    // is not a canonical checkpoint.
    if (reorder.Inactive()) return Malformed("empty reorder section");
  }
  if (!r.AtEnd()) return Malformed("trailing bytes after the last section");
  return checkpoint;
}

}  // namespace fw
