#include "runtime/shard_checkpoint.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "runtime/partition.h"

namespace fw {

Result<ExecutorCheckpoint> MergeShardCheckpoints(
    const std::vector<ExecutorCheckpoint>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("no shard checkpoints to merge");
  }
  const size_t num_ops = shards[0].operators.size();
  for (const ExecutorCheckpoint& shard : shards) {
    if (shard.operators.size() != num_ops) {
      return Status::InvalidArgument(
          "shard checkpoints disagree on operator count: " +
          std::to_string(shard.operators.size()) + " vs " +
          std::to_string(num_ops));
    }
  }

  ExecutorCheckpoint merged;
  merged.operators.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    OperatorCheckpoint op;
    op.operator_id = shards[0].operators[i].operator_id;
    std::map<int64_t, InstanceCheckpoint> instances;  // By instance m.
    for (const ExecutorCheckpoint& shard : shards) {
      const OperatorCheckpoint& part = shard.operators[i];
      if (part.operator_id != op.operator_id) {
        return Status::InvalidArgument(
            "shard checkpoints disagree on operator order at index " +
            std::to_string(i));
      }
      op.next_m = std::max(op.next_m, part.next_m);
      op.next_open_start = std::max(op.next_open_start, part.next_open_start);
      op.accumulate_ops += part.accumulate_ops;
      for (const InstanceCheckpoint& inst : part.open_instances) {
        auto [it, inserted] = instances.try_emplace(inst.m, inst);
        if (inserted) continue;
        InstanceCheckpoint& into = it->second;
        if (into.states.size() != inst.states.size()) {
          return Status::InvalidArgument(
              "shard checkpoints disagree on key-space size: " +
              std::to_string(inst.states.size()) + " vs " +
              std::to_string(into.states.size()));
        }
        for (size_t k = 0; k < inst.states.size(); ++k) {
          if (inst.states[k].empty()) continue;
          if (!into.states[k].empty()) {
            return Status::Internal(
                "key " + std::to_string(k) +
                " holds state on two shards (partitioning invariant "
                "violated)");
          }
          into.states[k] = inst.states[k];
        }
      }
    }
    op.open_instances.reserve(instances.size());
    for (auto& [m, inst] : instances) {
      op.open_instances.push_back(std::move(inst));
    }
    merged.operators.push_back(std::move(op));
  }
  return merged;
}

ExecutorCheckpoint ExtractShardCheckpoint(const ExecutorCheckpoint& global,
                                          uint32_t shard,
                                          uint32_t num_shards) {
  ExecutorCheckpoint out;
  out.operators = global.operators;
  for (OperatorCheckpoint& op : out.operators) {
    if (shard != 0) op.accumulate_ops = 0;
    for (InstanceCheckpoint& inst : op.open_instances) {
      for (size_t k = 0; k < inst.states.size(); ++k) {
        if (ShardForKey(static_cast<uint32_t>(k), num_shards) != shard) {
          inst.states[k] = AggState{};
        }
      }
    }
  }
  return out;
}

}  // namespace fw
