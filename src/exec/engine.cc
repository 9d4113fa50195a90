#include "exec/engine.h"

#include <limits>

#include "common/clock.h"
#include "common/logging.h"

namespace fw {

PlanExecutor::PlanExecutor(const QueryPlan& plan, const Options& options,
                           ResultSink* sink)
    : num_keys_(options.num_keys) {
  FW_CHECK_GT(plan.num_operators(), 0u);
  holistic_ = ClassOf(plan.agg()) == AggClass::kHolistic;

  const int n = static_cast<int>(plan.num_operators());
  if (holistic_) {
    for (int i = 0; i < n; ++i) {
      const PlanOperator& op = plan.op(i);
      FW_CHECK_EQ(op.parent, -1)
          << "holistic aggregates cannot share sub-aggregates";
      WindowAggregateOperator::Config config;
      config.window = op.window;
      config.agg = plan.agg();
      config.operator_id = i;
      config.exposed = op.exposed;
      config.num_keys = options.num_keys;
      holistic_operators_.push_back(
          std::make_unique<HolisticWindowOperator>(config, sink));
      holistic_raw_readers_.push_back(holistic_operators_.back().get());
    }
    return;
  }

  operators_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const PlanOperator& op = plan.op(i);
    WindowAggregateOperator::Config config;
    config.window = op.window;
    config.agg = plan.agg();
    config.operator_id = i;
    config.exposed = op.exposed;
    config.num_keys = options.num_keys;
    operators_[static_cast<size_t>(i)] =
        std::make_unique<WindowAggregateOperator>(config, sink);
  }
  for (int i = 0; i < n; ++i) {
    const PlanOperator& op = plan.op(i);
    if (op.parent < 0) {
      raw_readers_.push_back(operators_[static_cast<size_t>(i)].get());
    } else {
      operators_[static_cast<size_t>(op.parent)]->AddChild(
          operators_[static_cast<size_t>(i)].get());
    }
  }
  // Topological order (parents first) for flushing: repeatedly admit
  // operators whose parent is already placed.
  std::vector<bool> placed(static_cast<size_t>(n), false);
  while (static_cast<int>(topological_order_.size()) < n) {
    bool progressed = false;
    for (int i = 0; i < n; ++i) {
      if (placed[static_cast<size_t>(i)]) continue;
      int parent = plan.op(i).parent;
      if (parent < 0 || placed[static_cast<size_t>(parent)]) {
        placed[static_cast<size_t>(i)] = true;
        topological_order_.push_back(i);
        progressed = true;
      }
    }
    FW_CHECK(progressed) << "cycle in plan parent links";
  }
}

void PlanExecutor::Push(const Event& event) {
  if (holistic_) {
    for (HolisticWindowOperator* op : holistic_raw_readers_) {
      op->OnEvent(event);
    }
    return;
  }
  for (WindowAggregateOperator* op : raw_readers_) {
    op->OnEvent(event);
  }
}

void PlanExecutor::PushColumns(const EventColumns& columns) {
  const size_t n = columns.size();
  if (n == 0) return;
  if (holistic_) {
    // Holistic state is the raw value multiset — there is no batch fold
    // to vectorize, so the columnar path degenerates to per-event.
    for (size_t i = 0; i < n; ++i) {
      const Event event = columns[i];
      for (HolisticWindowOperator* op : holistic_raw_readers_) {
        op->OnEvent(event);
      }
    }
    return;
  }
  if (raw_readers_.size() == 1) {
    raw_readers_[0]->OnEvents(columns);
    return;
  }
  // Multiple raw readers (an original plan's Multicast): run boundaries
  // must be global — the minimum over all readers — so that each reader's
  // close/open emissions interleave with the folds exactly as the
  // per-event multicast would. The key grouping depends only on the span,
  // so each run is grouped (and its keys checked) once for every reader.
  const TimeT* ts = columns.timestamps.data();
  size_t i = 0;
  while (i < n) {
    TimeT boundary = std::numeric_limits<TimeT>::max();
    for (WindowAggregateOperator* op : raw_readers_) {
      const TimeT b = op->PrepareRun(ts[i]);
      if (b < boundary) boundary = b;
    }
    size_t j = i + 1;
    while (j < n && ts[j] < boundary) ++j;
    run_.Assign(columns.keys.data() + i, columns.values.data() + i, j - i,
                num_keys_);
    for (WindowAggregateOperator* op : raw_readers_) op->AccumulateRun(run_);
    i = j;
  }
}

void PlanExecutor::Finish() {
  if (holistic_) {
    for (HolisticWindowOperator* op : holistic_raw_readers_) op->Flush();
    return;
  }
  for (int i : topological_order_) {
    operators_[static_cast<size_t>(i)]->Flush();
  }
}

void PlanExecutor::CloseThrough(TimeT frontier) {
  if (holistic_) return;
  for (int i : topological_order_) {
    operators_[static_cast<size_t>(i)]->CloseUpTo(frontier);
  }
}

void PlanExecutor::Run(const std::vector<Event>& events) {
  for (const Event& e : events) Push(e);
  Finish();
}

void PlanExecutor::Reset() {
  for (auto& op : operators_) op->Reset();
  for (auto& op : holistic_operators_) op->Reset();
}

uint64_t PlanExecutor::TotalAccumulateOps() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->accumulate_ops();
  for (const auto& op : holistic_operators_) total += op->accumulate_ops();
  return total;
}

Result<ExecutorCheckpoint> PlanExecutor::Checkpoint() const {
  if (holistic_) {
    return Status::Unimplemented(
        "checkpointing holistic plans is not supported");
  }
  ExecutorCheckpoint checkpoint;
  checkpoint.operators.reserve(operators_.size());
  for (const auto& op : operators_) {
    checkpoint.operators.push_back(op->Checkpoint());
  }
  return checkpoint;
}

Status PlanExecutor::Restore(const ExecutorCheckpoint& checkpoint) {
  if (holistic_) {
    return Status::Unimplemented(
        "checkpointing holistic plans is not supported");
  }
  if (checkpoint.operators.size() != operators_.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(checkpoint.operators.size()) +
        " operators, plan has " + std::to_string(operators_.size()));
  }
  // Validate everything before mutating anything (restore is atomic).
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (checkpoint.operators[i].operator_id !=
        operators_[i]->config().operator_id) {
      return Status::InvalidArgument("checkpoint operator order mismatch");
    }
  }
  for (size_t i = 0; i < operators_.size(); ++i) {
    FW_RETURN_IF_ERROR(operators_[i]->Restore(checkpoint.operators[i]));
  }
  return Status::OK();
}

std::vector<uint64_t> PlanExecutor::PerOperatorOps() const {
  std::vector<uint64_t> ops;
  if (holistic_) {
    ops.reserve(holistic_operators_.size());
    for (const auto& op : holistic_operators_) {
      ops.push_back(op->accumulate_ops());
    }
    return ops;
  }
  ops.reserve(operators_.size());
  for (const auto& op : operators_) ops.push_back(op->accumulate_ops());
  return ops;
}

std::vector<uint64_t> PlanExecutor::PerOperatorCloses() const {
  std::vector<uint64_t> closes;
  if (holistic_) {
    closes.reserve(holistic_operators_.size());
    for (const auto& op : holistic_operators_) {
      closes.push_back(op->closed_instances());
    }
    return closes;
  }
  closes.reserve(operators_.size());
  for (const auto& op : operators_) closes.push_back(op->closed_instances());
  return closes;
}

std::vector<uint64_t> PlanExecutor::PerOperatorFinalizes() const {
  std::vector<uint64_t> finalizes;
  if (holistic_) {
    finalizes.reserve(holistic_operators_.size());
    for (const auto& op : holistic_operators_) {
      finalizes.push_back(op->finalized_results());
    }
    return finalizes;
  }
  finalizes.reserve(operators_.size());
  for (const auto& op : operators_) {
    finalizes.push_back(op->finalized_results());
  }
  return finalizes;
}

void ExecutePlan(const QueryPlan& plan, const std::vector<Event>& events,
                 uint32_t num_keys, ResultSink* sink,
                 double* throughput_out, uint64_t* ops_out) {
  PlanExecutor::Options options;
  options.num_keys = num_keys;
  PlanExecutor executor(plan, options, sink);
  MonotonicTimer timer;
  executor.Run(events);
  double seconds = timer.ElapsedSeconds();
  if (throughput_out != nullptr) {
    *throughput_out =
        seconds > 0.0 ? static_cast<double>(events.size()) / seconds : 0.0;
  }
  if (ops_out != nullptr) *ops_out = executor.TotalAccumulateOps();
}

}  // namespace fw
