#include "exec/operator.h"

#include <bit>
#include <string>

#include "common/logging.h"
#include "common/math_util.h"

namespace fw {

WindowAggregateOperator::WindowAggregateOperator(const Config& config,
                                                 ResultSink* sink)
    : config_(config),
      sink_(sink),
      accumulate_(config.agg != nullptr ? config.agg->accumulate : nullptr),
      accumulate_batch_(config.agg != nullptr ? config.agg->accumulate_batch
                                              : nullptr),
      finalize_(config.agg != nullptr ? config.agg->finalize : nullptr) {
  FW_CHECK(config.agg != nullptr) << "operator needs an aggregate function";
  FW_CHECK(ClassOf(config.agg) != AggClass::kHolistic)
      << "use HolisticWindowOperator for " << config.agg->name;
  FW_CHECK(sink != nullptr || !config.exposed)
      << "exposed operator requires a sink";
  FW_CHECK_GT(config.num_keys, 0u);
}

void WindowAggregateOperator::AddChild(WindowAggregateOperator* child) {
  FW_CHECK(child != nullptr);
  FW_CHECK_EQ(child->config_.num_keys, config_.num_keys)
      << "a child merges its parent's per-key states";
  children_.push_back(child);
}

WindowAggregateOperator::Instance& WindowAggregateOperator::OpenInstance(
    int64_t m) {
  if (instance_pool_.empty()) {
    Instance& instance = open_.emplace_back();
    instance.states.resize(config_.num_keys);
    instance.touched.resize((config_.num_keys + 63) / 64);
  } else {
    open_.push_back(std::move(instance_pool_.back()));
    instance_pool_.pop_back();
  }
  open_.back().m = m;
  return open_.back();
}

void WindowAggregateOperator::OnEvent(const Event& event) {
  PrepareRun(event.timestamp);
  const uint32_t key = event.key;
  const double value = event.value;
  FW_CHECK_LT(key, config_.num_keys);
  for (Instance& instance : open_) {
    accumulate_(instance.StateFor(key), value);
  }
  accumulate_ops_ += open_.size();
}

TimeT WindowAggregateOperator::PrepareRun(TimeT t) {
  // Instances with end <= t can no longer contain t.
  CloseBefore(t + 1);
  // Open every instance whose span [m*s, m*s + r) contains t: start <= t
  // and end > t, i.e. end_floor = t + 1. A skipped instance got no event,
  // so it never hands the children the sub-aggregate that would retire
  // their instances ending with it (MergeSubAggregates). Close those
  // here: every instance this operator closes from now on ends after t,
  // so no descendant instance ending at or before t can receive more.
  // Dense streams skip nothing and never take this branch. Until t
  // reaches the next instance's start there is nothing to open or skip:
  // the guard keeps that common case one compare.
  if (next_open_start_ <= t) {
    // Ends rise with m, so OpenThrough skips some instance exactly when
    // it skips the next one: when that one ends at or before t.
    const bool skips = InstanceEnd(next_m_) <= t;
    OpenThrough(/*start_limit=*/t, /*end_floor=*/t + 1);
    if (skips) CloseDescendantsBefore(t + 1);
  }
  // The open set next changes when the oldest instance's end passes (a
  // close) or when the next unopened instance's span begins (an open).
  // Both bounds are > t here: OpenThrough just advanced next_open_start_
  // past start_limit = t, and CloseBefore left only instances ending
  // after t — so every run is non-empty.
  TimeT boundary = next_open_start_;
  if (!open_.empty()) {
    const TimeT front_end = InstanceEnd(open_.front().m);
    if (front_end < boundary) boundary = front_end;
  }
  return boundary;
}

void WindowAggregateOperator::AccumulateRun(const KeyGroups& run) {
  const uint32_t* keys = run.keys();
  if (run.count() == 1) {
    for (Instance& instance : open_) {
      accumulate_(instance.StateFor(keys[0]), run.values()[0]);
    }
    accumulate_ops_ += open_.size();
    return;
  }
  const size_t groups = run.num_groups();
  const uint32_t* lengths = run.lengths();
  for (Instance& instance : open_) {
    const double* segment = run.values();
    for (size_t group = 0; group < groups; ++group) {
      const uint32_t len = lengths[group];
      AggState* state = instance.StateFor(keys[group]);
      if (accumulate_batch_ != nullptr) {
        accumulate_batch_(state, segment, len);
      } else {
        for (uint32_t i = 0; i < len; ++i) accumulate_(state, segment[i]);
      }
      segment += len;
    }
  }
  accumulate_ops_ += static_cast<uint64_t>(run.count()) * open_.size();
}

void WindowAggregateOperator::OnEvents(const EventColumns& columns) {
  const size_t n = columns.size();
  const TimeT* ts = columns.timestamps.data();
  size_t i = 0;
  while (i < n) {
    const TimeT boundary = PrepareRun(ts[i]);
    size_t j = i + 1;
    while (j < n && ts[j] < boundary) ++j;
    run_.Assign(columns.keys.data() + i, columns.values.data() + i, j - i,
                config_.num_keys);
    AccumulateRun(run_);
    i = j;
  }
}

void WindowAggregateOperator::MergeSubAggregates(
    const std::vector<AggState>& states, const std::vector<uint32_t>& keys,
    const std::vector<KeyMask>& masks, TimeT end) {
  for (Instance& instance : open_) {
    AggMergeBatch(config_.agg, instance.states.data(), states.data(),
                  keys.data(), keys.size());
    // One OR per occupied word: per key, the ORs would chain
    // read-modify-writes through the same word.
    for (const KeyMask& mask : masks) instance.touched[mask.word] |= mask.bits;
  }
  accumulate_ops_ += static_cast<uint64_t>(keys.size()) * open_.size();
  // The instance ending with the parent's has merged its last input; the
  // parent's next close would retire it before merging. `<= end`, not
  // `< end + 1`: no bound overflows.
  while (!open_.empty() && InstanceEnd(open_.front().m) <= end) RetireFront();
}

void WindowAggregateOperator::Flush() { CloseBefore(/*watermark=*/INT64_MAX); }

void WindowAggregateOperator::Reset() {
  open_.clear();
  next_m_ = 0;
  next_open_start_ = 0;
  instance_pool_.clear();
  accumulate_ops_ = 0;
  closed_instances_ = 0;
  finalized_results_ = 0;
}

OperatorCheckpoint WindowAggregateOperator::Checkpoint() const {
  OperatorCheckpoint checkpoint;
  checkpoint.operator_id = config_.operator_id;
  checkpoint.next_m = next_m_;
  checkpoint.next_open_start = next_open_start_;
  checkpoint.accumulate_ops = accumulate_ops_;
  checkpoint.open_instances.reserve(open_.size());
  for (const Instance& instance : open_) {
    InstanceCheckpoint inst;
    inst.m = instance.m;
    // Canonical per-key states: untouched keys snapshot as plain empty
    // states even when the pooled buffer still carries a recycled sketch
    // allocation — a checkpoint must be a pure function of the delivered
    // stream, not of the operator's buffer-reuse history.
    inst.states.reserve(instance.states.size());
    for (const AggState& state : instance.states) {
      inst.states.push_back(state.empty() ? AggState{} : state);
    }
    checkpoint.open_instances.push_back(std::move(inst));
  }
  return checkpoint;
}

Status WindowAggregateOperator::Restore(const OperatorCheckpoint& checkpoint) {
  if (checkpoint.operator_id != config_.operator_id) {
    return Status::InvalidArgument(
        "checkpoint is for operator " +
        std::to_string(checkpoint.operator_id) + ", not " +
        std::to_string(config_.operator_id));
  }
  // The open cursor is next_m's start: OpenThrough advances both together.
  const TimeT slide = config_.window.slide();
  if (checkpoint.next_open_start % slide != 0 ||
      checkpoint.next_open_start / slide != checkpoint.next_m) {
    return Status::InvalidArgument(
        "checkpoint next_open_start " +
        std::to_string(checkpoint.next_open_start) + " is not next_m " +
        std::to_string(checkpoint.next_m) + " x slide " +
        std::to_string(slide));
  }
  const InstanceCheckpoint* previous = nullptr;
  for (const InstanceCheckpoint& inst : checkpoint.open_instances) {
    if (inst.states.size() != config_.num_keys) {
      return Status::InvalidArgument(
          "checkpoint key-space mismatch: " +
          std::to_string(inst.states.size()) + " vs " +
          std::to_string(config_.num_keys));
    }
    if (inst.m >= checkpoint.next_m) {
      return Status::InvalidArgument("open instance beyond next_m cursor");
    }
    // CloseBefore retires instances from the front only, so the deque
    // must be strictly ordered by m: a swapped pair would keep folding
    // into an instance past its end, and a repeated m would emit twice.
    if (previous != nullptr && inst.m <= previous->m) {
      return Status::InvalidArgument(
          "open instance m " + std::to_string(inst.m) + " follows m " +
          std::to_string(previous->m) +
          " (open instances must be strictly increasing)");
    }
    previous = &inst;
    for (const AggState& state : inst.states) {
      // Extension payloads are typed by size (state_bytes contract): a
      // sketch state must round-trip into the same function's layout.
      const uint32_t expected = state.empty() ? 0 : config_.agg->state_bytes;
      if (state.ext_size() != expected) {
        return Status::InvalidArgument(
            "state payload is " + std::to_string(state.ext_size()) +
            " bytes, " + config_.agg->name + " expects " +
            std::to_string(expected));
      }
    }
  }
  Reset();
  next_m_ = checkpoint.next_m;
  next_open_start_ = checkpoint.next_open_start;
  accumulate_ops_ = checkpoint.accumulate_ops;
  for (const InstanceCheckpoint& inst : checkpoint.open_instances) {
    // One pass copies the occupied states and marks them touched; empty
    // ones stay as OpenInstance zeroed them (validated payload-free).
    Instance& instance = OpenInstance(inst.m);
    for (uint32_t key = 0; key < config_.num_keys; ++key) {
      const AggState& state = inst.states[key];
      if (state.empty()) continue;
      *instance.StateFor(key) = state;
    }
  }
  return Status::OK();
}

void WindowAggregateOperator::CloseBefore(TimeT watermark) {
  while (!open_.empty() && InstanceEnd(open_.front().m) < watermark) {
    RetireFront();
  }
}

void WindowAggregateOperator::RetireFront() {
  EmitInstance(&open_.front());
  open_.pop_front();
}

void WindowAggregateOperator::CloseDescendantsBefore(TimeT watermark) {
  for (WindowAggregateOperator* child : children_) {
    child->CloseBefore(watermark);
    child->CloseDescendantsBefore(watermark);
  }
}

void WindowAggregateOperator::OpenThrough(TimeT start_limit,
                                          TimeT end_floor) {
  const TimeT s = config_.window.slide();
  const TimeT r = config_.window.range();
  // After a gap longer than the window range, every instance before the
  // first one satisfying end >= end_floor is unfillable; jump there with
  // one division instead of sliding across the gap.
  if (next_open_start_ + r < end_floor &&
      end_floor - (next_open_start_ + r) > r) {
    int64_t m = CeilDiv64(end_floor - r, s);
    if (m > next_m_) {
      next_m_ = m;
      next_open_start_ = m * s;
    }
  }
  while (next_open_start_ <= start_limit) {
    if (next_open_start_ + r >= end_floor) {
      OpenInstance(next_m_);
    }
    // Instances with end < end_floor are skipped: the input is ordered, so
    // nothing can arrive for them anymore.
    ++next_m_;
    next_open_start_ += s;
  }
}

void WindowAggregateOperator::EmitInstance(Instance* instance) {
  ++closed_instances_;
  const TimeT start = InstanceStart(instance->m);
  const TimeT end = InstanceEnd(instance->m);
  // Walk only the touched keys, in ascending key order, and collect the
  // non-empty ones: as a key list and as bitmap words for the children,
  // and with their finalized values beside the keys for the sink.
  emit_keys_.clear();
  emit_masks_.clear();
  emit_values_.clear();
  for (size_t word = 0; word < instance->touched.size(); ++word) {
    uint64_t bits = instance->touched[word];
    instance->touched[word] = 0;
    uint64_t emitted = 0;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      const uint32_t key = static_cast<uint32_t>(word * 64 + bit);
      bits &= bits - 1;
      const AggState& state = instance->states[key];
      if (state.n == 0) continue;
      emitted |= uint64_t{1} << bit;
      emit_keys_.push_back(key);
      if (config_.exposed) emit_values_.push_back(finalize_(state));
    }
    if (emitted != 0) {
      emit_masks_.push_back({static_cast<uint32_t>(word), emitted});
    }
  }
  const size_t count = emit_keys_.size();
  if (count != 0) {
    // The first result goes out alone when there are children: their
    // frontier moves to this instance right after it, which closes (and
    // delivers) every child instance that ends before it, ahead of the
    // remaining keys' block. A childless operator delivers the instance
    // as one block.
    const size_t head = children_.empty() ? count : 1;
    if (config_.exposed) {
      finalized_results_ += count;
      sink_->OnBlock(config_.operator_id, start, end, emit_keys_.data(),
                     emit_values_.data(), head);
    }
    // Instances with end < this end cannot contain [start, end) and
    // close; the ones whose span covers it open.
    for (WindowAggregateOperator* child : children_) {
      child->CloseBefore(end);
      child->OpenThrough(start, end);
    }
    if (config_.exposed && head < count) {
      sink_->OnBlock(config_.operator_id, start, end, emit_keys_.data() + head,
                     emit_values_.data() + head, count - head);
    }
    for (WindowAggregateOperator* child : children_) {
      child->MergeSubAggregates(instance->states, emit_keys_, emit_masks_,
                                end);
    }
  }
  for (const uint32_t key : emit_keys_) {
    instance->states[key].Clear();  // Zero for reuse (keeps sketch memory).
  }
  instance_pool_.push_back(std::move(*instance));
}

HolisticWindowOperator::HolisticWindowOperator(const Config& config,
                                               ResultSink* sink)
    : config_(config), sink_(sink) {
  FW_CHECK(ClassOf(config.agg) == AggClass::kHolistic);
  FW_CHECK(sink != nullptr);
  FW_CHECK(config.exposed) << "holistic operators cannot feed children";
  FW_CHECK_GT(config.num_keys, 0u);
}

void HolisticWindowOperator::OnEvent(const Event& event) {
  const TimeT t = event.timestamp;
  CloseBefore(t + 1);
  const TimeT s = config_.window.slide();
  int64_t m_hi = FloorDiv(t, s);
  int64_t m_lo = FloorDiv(t - config_.window.range(), s) + 1;
  int64_t m = next_m_ < m_lo ? m_lo : next_m_;
  if (m < 0) m = 0;
  for (; m <= m_hi; ++m) {
    Instance instance;
    instance.m = m;
    instance.states.assign(config_.num_keys, HolisticState{});
    open_.push_back(std::move(instance));
  }
  if (m_hi + 1 > next_m_) next_m_ = m_hi + 1;
  FW_CHECK_LT(event.key, config_.num_keys);
  for (Instance& instance : open_) {
    instance.states[event.key].Add(event.value);
    ++accumulate_ops_;
  }
}

void HolisticWindowOperator::Flush() { CloseBefore(INT64_MAX); }

void HolisticWindowOperator::Reset() {
  open_.clear();
  next_m_ = 0;
  accumulate_ops_ = 0;
  closed_instances_ = 0;
  finalized_results_ = 0;
}

void HolisticWindowOperator::CloseBefore(TimeT watermark) {
  while (!open_.empty() && InstanceEnd(open_.front().m) < watermark) {
    EmitInstance(&open_.front());
    open_.pop_front();
  }
}

void HolisticWindowOperator::EmitInstance(Instance* instance) {
  ++closed_instances_;
  const TimeT start = instance->m * config_.window.slide();
  const TimeT end = InstanceEnd(instance->m);
  emit_keys_.clear();
  emit_values_.clear();
  for (uint32_t key = 0; key < config_.num_keys; ++key) {
    HolisticState& state = instance->states[key];
    if (state.empty()) continue;
    emit_keys_.push_back(key);
    emit_values_.push_back(HolisticFinalize(config_.agg, &state));
  }
  if (emit_keys_.empty()) return;
  finalized_results_ += emit_keys_.size();
  sink_->OnBlock(config_.operator_id, start, end, emit_keys_.data(),
                 emit_values_.data(), emit_keys_.size());
}

}  // namespace fw
