#include "runtime/sharded_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "exec/engine.h"
#include "factor/optimizer.h"
#include "multi/multi_query.h"
#include "runtime/partition.h"
#include "exec/reorderer.h"
#include "runtime/shard_checkpoint.h"
#include "runtime/spsc_queue.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

// --- SPSC queue ------------------------------------------------------------

TEST(SpscQueue, SingleThreadedOrderAndBounds) {
  SpscQueue<int> queue(3);
  EXPECT_EQ(queue.capacity(), 4u);  // Rounded up to a power of two.

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.TryPush(int{i}));
  }
  int overflow = 99;
  EXPECT_FALSE(queue.TryPush(std::move(overflow)));  // Full.

  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, i);  // FIFO.
  }
  EXPECT_FALSE(queue.TryPop(&out));  // Empty.

  // Close with nothing pending: blocking Pop returns false immediately.
  queue.Close();
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(SpscQueue, CrossThreadTransferDeliversEverythingInOrder) {
  constexpr int kItems = 100000;
  SpscQueue<int> queue(8);  // Tiny: forces producer back-pressure.

  std::thread producer([&queue] {
    for (int i = 0; i < kItems; ++i) queue.Push(int{i});
    queue.Close();
  });

  int expected = 0;
  int64_t sum = 0;
  int out = -1;
  while (queue.Pop(&out)) {
    EXPECT_EQ(out, expected);
    ++expected;
    sum += out;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(sum, int64_t{kItems} * (kItems - 1) / 2);
}

// --- Key partitioning ------------------------------------------------------

TEST(Partition, ShardAssignmentIsStableAndInRange) {
  for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    for (uint32_t key = 0; key < 256; ++key) {
      uint32_t shard = ShardForKey(key, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, ShardForKey(key, shards));  // Deterministic.
    }
  }
  // A keyless stream (only key 0) always lands on shard 0, whatever the
  // shard count — this is why global queries pin to shard 0.
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(ShardForKey(0, shards), 0u);
  }
}

TEST(Partition, HashSpreadsContiguousKeys) {
  // Round-robin key assignment (the synthetic workloads) must not
  // collapse onto few shards.
  constexpr uint32_t kShards = 4;
  std::set<uint32_t> hit;
  for (uint32_t key = 0; key < 16; ++key) {
    hit.insert(ShardForKey(key, kShards));
  }
  EXPECT_EQ(hit.size(), kShards);
}

TEST(Partition, EffectiveShardsClampsToKeySpace) {
  EXPECT_EQ(EffectiveShards(8, 4), 4u);   // No more shards than keys.
  EXPECT_EQ(EffectiveShards(2, 16), 2u);
  EXPECT_EQ(EffectiveShards(8, 1), 1u);   // Keyless never parallelizes.
  EXPECT_EQ(EffectiveShards(0, 16), 1u);  // At least one shard.
}

// --- Reorderer -------------------------------------------------------------

TEST(Reorderer, ReleasesByTimestampThenArrival) {
  Reorderer reorderer;
  // Two timestamp ties (t=5 seq 0/2, t=3 seq 1/3): release must order by
  // timestamp first, arrival second — the stability that keeps per-key
  // fold order shard-count invariant.
  reorderer.Buffer({.timestamp = 5, .key = 0, .value = 1.0}, 0);
  reorderer.Buffer({.timestamp = 3, .key = 0, .value = 2.0}, 1);
  reorderer.Buffer({.timestamp = 5, .key = 0, .value = 3.0}, 2);
  reorderer.Buffer({.timestamp = 3, .key = 0, .value = 4.0}, 3);
  EXPECT_EQ(reorderer.buffered(), 4u);

  std::vector<double> released;
  EXPECT_EQ(reorderer.ReleaseThrough(
                4, [&](const Event& e) { released.push_back(e.value); }),
            2u);
  EXPECT_EQ(released, (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(reorderer.ReleaseAll(
                [&](const Event& e) { released.push_back(e.value); }),
            2u);
  EXPECT_EQ(released, (std::vector<double>{2.0, 4.0, 1.0, 3.0}));
  EXPECT_EQ(reorderer.buffered(), 0u);
}

TEST(Reorderer, SnapshotIsInArrivalOrder) {
  Reorderer reorderer;
  reorderer.Buffer({.timestamp = 9, .key = 1, .value = 0.5}, 7);
  reorderer.Buffer({.timestamp = 2, .key = 3, .value = 1.5}, 9);
  reorderer.Buffer({.timestamp = 4, .key = 2, .value = 2.5}, 8);
  std::vector<BufferedEvent> snapshot = reorderer.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].seq, 7u);
  EXPECT_EQ(snapshot[1].seq, 8u);
  EXPECT_EQ(snapshot[2].seq, 9u);
  EXPECT_EQ(snapshot[2].event.timestamp, 2);
  EXPECT_EQ(reorderer.buffered(), 3u);  // Snapshot does not consume.
}

// --- Checkpoint merge / split ----------------------------------------------

TEST(ShardCheckpoint, MergeRejectsMismatchedPlansAndSharedKeys) {
  OperatorCheckpoint op;
  op.operator_id = 0;
  op.next_m = 2;
  InstanceCheckpoint inst;
  inst.m = 1;
  inst.states.resize(4);
  inst.states[2].n = 1;
  op.open_instances.push_back(inst);
  ExecutorCheckpoint a;
  a.operators.push_back(op);

  ExecutorCheckpoint extra_op = a;
  extra_op.operators.push_back(op);
  EXPECT_EQ(MergeShardCheckpoints({a, extra_op}).status().code(),
            StatusCode::kInvalidArgument);

  // The same key holding state on two shards violates the partitioning
  // invariant and must be loud, not silently double-counted.
  EXPECT_EQ(MergeShardCheckpoints({a, a}).status().code(),
            StatusCode::kInternal);
}

TEST(ShardCheckpoint, MergeUnionsInstancesAndSumsCounters) {
  auto make_shard = [](int64_t next_m, int64_t m, uint32_t key,
                       uint64_t ops) {
    ExecutorCheckpoint shard;
    OperatorCheckpoint op;
    op.operator_id = 0;
    op.next_m = next_m;
    op.next_open_start = next_m * 10;
    op.accumulate_ops = ops;
    InstanceCheckpoint inst;
    inst.m = m;
    inst.states.resize(8);
    inst.states[key].n = 3;
    inst.states[key].v1 = static_cast<double>(key);
    op.open_instances.push_back(inst);
    shard.operators.push_back(op);
    return shard;
  };

  // Shard 0 is ahead (next_m 5, instance 4 open for key 1); shard 1 lags
  // (next_m 3, instance 2 still open for key 6).
  Result<ExecutorCheckpoint> merged = MergeShardCheckpoints(
      {make_shard(5, 4, 1, 100), make_shard(3, 2, 6, 40)});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->operators.size(), 1u);
  const OperatorCheckpoint& op = merged->operators[0];
  EXPECT_EQ(op.next_m, 5);
  EXPECT_EQ(op.next_open_start, 50);
  EXPECT_EQ(op.accumulate_ops, 140u);
  ASSERT_EQ(op.open_instances.size(), 2u);
  EXPECT_EQ(op.open_instances[0].m, 2);  // Sorted by instance number.
  EXPECT_EQ(op.open_instances[1].m, 4);
  EXPECT_EQ(op.open_instances[0].states[6].n, 3u);
  EXPECT_EQ(op.open_instances[1].states[1].n, 3u);
}

TEST(ShardCheckpoint, ExtractKeepsOnlyOwnedKeys) {
  constexpr uint32_t kKeys = 16;
  constexpr uint32_t kShards = 4;
  ExecutorCheckpoint global;
  OperatorCheckpoint op;
  op.operator_id = 0;
  op.next_m = 1;
  op.accumulate_ops = 77;
  InstanceCheckpoint inst;
  inst.m = 0;
  inst.states.resize(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) inst.states[k].n = k + 1;
  op.open_instances.push_back(inst);
  global.operators.push_back(op);

  std::vector<ExecutorCheckpoint> parts;
  uint64_t total_ops = 0;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    parts.push_back(ExtractShardCheckpoint(global, shard, kShards));
    total_ops += parts.back().operators[0].accumulate_ops;
    for (uint32_t k = 0; k < kKeys; ++k) {
      const AggState& state =
          parts.back().operators[0].open_instances[0].states[k];
      if (ShardForKey(k, kShards) == shard) {
        EXPECT_EQ(state.n, k + 1);
      } else {
        EXPECT_TRUE(state.empty());
      }
    }
  }
  EXPECT_EQ(total_ops, 77u);  // Counters carried once, on shard 0.

  // Splitting then merging is the identity on the global view.
  Result<ExecutorCheckpoint> roundtrip = MergeShardCheckpoints(parts);
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status().ToString();
  EXPECT_EQ(roundtrip->Serialize(), global.Serialize());
}

TEST(ShardCheckpoint, MergeRejectsEmptyInputAndMismatchedFingerprints) {
  // No shards at all is a caller bug, not a valid empty merge.
  EXPECT_EQ(MergeShardCheckpoints({}).status().code(),
            StatusCode::kInvalidArgument);

  // Same operator count but different operator ids: the checkpoints came
  // from plans with different operator layouts (mismatched fingerprints)
  // and must not be zipped together positionally.
  OperatorCheckpoint op;
  op.operator_id = 0;
  ExecutorCheckpoint a;
  a.operators.push_back(op);
  ExecutorCheckpoint b;
  op.operator_id = 7;
  b.operators.push_back(op);
  EXPECT_EQ(MergeShardCheckpoints({a, b}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardCheckpoint, MergeRejectsKeySpaceMismatch) {
  // Two shards snapshotting "the same" instance over different key-space
  // sizes cannot union per-key states.
  auto make = [](size_t num_keys, uint32_t key) {
    ExecutorCheckpoint shard;
    OperatorCheckpoint op;
    op.operator_id = 0;
    op.next_m = 1;
    InstanceCheckpoint inst;
    inst.m = 0;
    inst.states.resize(num_keys);
    inst.states[key].n = 1;
    op.open_instances.push_back(inst);
    shard.operators.push_back(op);
    return shard;
  };
  EXPECT_EQ(MergeShardCheckpoints({make(4, 1), make(8, 5)}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardCheckpoint, MergeOfStatelessShardsIsEmptyButWellFormed) {
  // Shards that saw no events (every instance closed, or never opened)
  // merge into a clean zero checkpoint — the "empty-shard merge" path a
  // Resize of a quiet session exercises.
  ExecutorCheckpoint empty_shard;
  OperatorCheckpoint op;
  op.operator_id = 0;
  empty_shard.operators.push_back(op);

  Result<ExecutorCheckpoint> merged =
      MergeShardCheckpoints({empty_shard, empty_shard, empty_shard});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->operators.size(), 1u);
  EXPECT_EQ(merged->operators[0].next_m, 0);
  EXPECT_EQ(merged->operators[0].accumulate_ops, 0u);
  EXPECT_TRUE(merged->operators[0].open_instances.empty());
  EXPECT_TRUE(merged->reorder.Inactive());
}

TEST(ShardCheckpoint, SplitToMoreShardsThanKeysRoundTrips) {
  // 4 keys split across 8 shards: at least half the shards own no key at
  // all and must come back empty (but structurally valid), and the
  // merge of all parts is still the identity.
  constexpr uint32_t kKeys = 4;
  constexpr uint32_t kShards = 8;
  ExecutorCheckpoint global;
  OperatorCheckpoint op;
  op.operator_id = 0;
  op.next_m = 3;
  op.accumulate_ops = 12;
  InstanceCheckpoint inst;
  inst.m = 2;
  inst.states.resize(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) inst.states[k].n = k + 1;
  op.open_instances.push_back(inst);
  global.operators.push_back(op);

  std::vector<ExecutorCheckpoint> parts;
  uint32_t empty_shards = 0;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    parts.push_back(ExtractShardCheckpoint(global, shard, kShards));
    bool owns_any = false;
    for (uint32_t k = 0; k < kKeys; ++k) {
      const bool owned = ShardForKey(k, kShards) == shard;
      owns_any |= owned;
      EXPECT_EQ(
          parts.back().operators[0].open_instances[0].states[k].empty(),
          !owned);
    }
    if (!owns_any) ++empty_shards;
  }
  EXPECT_GE(empty_shards, kShards - kKeys);

  Result<ExecutorCheckpoint> roundtrip = MergeShardCheckpoints(parts);
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status().ToString();
  EXPECT_EQ(roundtrip->Serialize(), global.Serialize());
}

// --- ShardedExecutor -------------------------------------------------------

QueryPlan SharedTestPlan() {
  // A jointly optimized multi-window plan, so sharding also covers the
  // sub-aggregate (operator → operator) flow, not just raw readers.
  StreamQuery q1;
  q1.source = "s";
  q1.agg = Agg("MIN");
  q1.per_key = true;
  q1.key_column = "k";
  EXPECT_TRUE(q1.windows.Add(Window::Tumbling(20)).ok());
  EXPECT_TRUE(q1.windows.Add(Window(60, 20)).ok());
  StreamQuery q2 = q1;
  q2.windows = WindowSet();
  EXPECT_TRUE(q2.windows.Add(Window::Tumbling(40)).ok());
  EXPECT_TRUE(q2.windows.Add(Window::Tumbling(120)).ok());
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Optimize({q1, q2});
  EXPECT_TRUE(shared.ok()) << shared.status().ToString();
  return shared->plan;
}

// One delivery, flattened for exact comparison: (events pushed when it
// was delivered, late side-output?, operator, start, end, key, value). A
// late event logs its timestamp as the start.
using Delivery = std::tuple<uint64_t, bool, int, TimeT, TimeT, uint32_t, double>;

Delivery Flatten(uint64_t position, const WindowResult& r) {
  return {position, false, r.operator_id, r.start, r.end, r.key, r.value};
}

// Records every result and late event with its delivery position; the
// test advances `pushed` before each Push, so a drain point triggered by
// the n-th event logs position n.
class DeliveryLog : public ResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    log.push_back(Flatten(pushed, result));
    results.OnResult(result);
  }
  void Consume(const Event& event) {
    log.push_back({pushed, true, 0, event.timestamp, 0, event.key,
                   event.value});
  }

  uint64_t pushed = 0;
  std::vector<Delivery> log;
  CollectingSink results;  // The results alone, for multiset checks.
};

// Every chunk — the results delivered at one position — must be strictly
// increasing in the merge order (window end, start, operator, key).
void ExpectChunksSorted(const std::vector<Delivery>& log) {
  const auto merge_key = [](const Delivery& d) {
    return std::make_tuple(std::get<4>(d), std::get<3>(d), std::get<2>(d),
                           std::get<5>(d));
  };
  for (size_t i = 1; i < log.size(); ++i) {
    if (std::get<0>(log[i - 1]) != std::get<0>(log[i]) ||
        std::get<1>(log[i - 1]) || std::get<1>(log[i])) {
      continue;
    }
    EXPECT_LT(merge_key(log[i - 1]), merge_key(log[i]))
        << "chunk at position " << std::get<0>(log[i]) << ", entry " << i;
  }
}

TEST(ShardedExecutor, MatchesSingleThreadedExecutorExactly) {
  constexpr uint32_t kKeys = 16;
  std::vector<Event> events = GenerateSyntheticStream(20000, kKeys, 21);
  QueryPlan plan = SharedTestPlan();

  CollectingSink reference;
  uint64_t reference_ops = 0;
  ExecutePlan(plan, events, kKeys, &reference, nullptr, &reference_ops);

  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 16;       // Exercise many hand-offs.
    options.drain_interval = 3000; // Exercise mid-stream drains.
    CollectingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    EXPECT_EQ(executor.num_shards(), shards);
    for (const Event& event : events) executor.Push(event);
    executor.Finish();
    EXPECT_EQ(sink.ToMap(), reference.ToMap()) << shards << " shards";
    EXPECT_EQ(executor.TotalAccumulateOps(), reference_ops);
  }
}

TEST(ShardedExecutor, MergeOrderIsDeterministicAndSortedPerDrain) {
  constexpr uint32_t kKeys = 8;
  std::vector<Event> events = GenerateSyntheticStream(6000, kKeys, 22);
  QueryPlan plan = SharedTestPlan();

  auto run = [&] {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = 4;
    options.batch_size = 32;
    // Longer than the stream: the only drain point is Finish.
    options.drain_interval = events.size() + 1;
    CollectingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    for (const Event& event : events) executor.Push(event);
    executor.Finish();
    return sink.results();
  };

  std::vector<WindowResult> first = run();
  std::vector<WindowResult> second = run();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(std::tie(first[i].end, first[i].start, first[i].operator_id,
                       first[i].key),
              std::tie(second[i].end, second[i].start,
                       second[i].operator_id, second[i].key));
    EXPECT_EQ(first[i].value, second[i].value);
  }
  // Single drain point here (Finish), so the whole delivery is sorted by
  // the merge order.
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(std::tie(first[i - 1].end, first[i - 1].start,
                       first[i - 1].operator_id, first[i - 1].key),
              std::tie(first[i].end, first[i].start, first[i].operator_id,
                       first[i].key));
  }
}

TEST(ShardedExecutor, EveryDrainChunkIsTheSortedUnionOfItsEpoch) {
  constexpr uint32_t kKeys = 8;
  constexpr uint32_t kShards = 2;
  constexpr uint64_t kDrainInterval = 500;
  // Not a multiple of the interval, so the last epoch is a partial one.
  std::vector<Event> events = GenerateSyntheticStream(6100, kKeys, 25);
  QueryPlan plan = SharedTestPlan();

  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = kShards;
  options.batch_size = 16;
  options.drain_interval = kDrainInterval;
  DeliveryLog delivered;
  ShardedExecutor executor(plan, options, &delivered);
  for (const Event& event : events) {
    ++delivered.pushed;
    executor.Push(event);
  }
  executor.Finish();
  ExpectChunksSorted(delivered.log);

  // Reference: one bare engine per shard over the same key slice. The
  // chunk at periodic drain point n is the sorted union of what they
  // emitted during epoch n − 1 (drain point n closes epoch n), and Finish
  // delivers the last two epochs as one sorted chunk.
  std::vector<CollectingSink> shard_sinks(kShards);
  std::vector<std::unique_ptr<PlanExecutor>> engines;
  PlanExecutor::Options exec_options;
  exec_options.num_keys = kKeys;
  for (CollectingSink& sink : shard_sinks) {
    engines.push_back(std::make_unique<PlanExecutor>(plan, exec_options, &sink));
  }
  std::vector<Delivery> expected;
  std::vector<size_t> taken(kShards, 0);
  std::vector<WindowResult> outstanding;  // The previous epoch's output.
  auto take_epoch = [&] {
    for (uint32_t s = 0; s < kShards; ++s) {
      const std::vector<WindowResult>& results = shard_sinks[s].results();
      outstanding.insert(outstanding.end(), results.begin() + taken[s],
                         results.end());
      taken[s] = results.size();
    }
  };
  auto deliver = [&](uint64_t position) {
    std::sort(outstanding.begin(), outstanding.end(),
              [](const WindowResult& a, const WindowResult& b) {
                return std::tie(a.end, a.start, a.operator_id, a.key) <
                       std::tie(b.end, b.start, b.operator_id, b.key);
              });
    for (const WindowResult& r : outstanding) {
      expected.push_back(Flatten(position, r));
    }
    outstanding.clear();
  };
  for (size_t i = 0; i < events.size(); ++i) {
    engines[ShardForKey(events[i].key, kShards)]->Push(events[i]);
    if ((i + 1) % kDrainInterval == 0) {
      deliver(i + 1);
      take_epoch();
    }
  }
  for (auto& engine : engines) engine->Finish();
  take_epoch();
  deliver(events.size());
  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(delivered.log, expected);
}

// Logs every OnBlock call with its delivery position, and its results
// flattened like DeliveryLog's. The merge stage hands the sink blocks
// only, so a per-result call fails.
class BlockDeliveryLog : public ResultSink {
 public:
  struct Block {
    uint64_t position;
    int op;
    TimeT start;
    TimeT end;
  };

  void OnResult(const WindowResult&) override {
    ADD_FAILURE() << "a result was delivered outside a block";
  }
  void OnBlock(int operator_id, TimeT start, TimeT end, const uint32_t* keys,
               const double* values, size_t count) override {
    EXPECT_GT(count, 0u);
    blocks.push_back({pushed, operator_id, start, end});
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) {
        EXPECT_LT(keys[i - 1], keys[i]) << "block " << blocks.size();
      }
      const WindowResult r{operator_id, start, end, keys[i], values[i]};
      flat.push_back(Flatten(pushed, r));
      results.OnResult(r);
    }
  }

  uint64_t pushed = 0;
  std::vector<Block> blocks;
  std::vector<Delivery> flat;
  CollectingSink results;
};

TEST(ShardedExecutor, EveryDrainDeliversOneBlockPerInstance) {
  // Round-robin keys over 300: every instance holds keys of every shard,
  // so each delivered block is a merge of 2 or 4 shard blocks. T(20) and
  // T(40) have children, so their closes reach the shard buffers as two
  // engine blocks each.
  constexpr uint32_t kKeys = 300;
  const std::vector<Event> events = GenerateSyntheticStream(9000, kKeys, 31);
  const QueryPlan plan = SharedTestPlan();
  CollectingSink inline_sink;
  ExecutePlan(plan, events, kKeys, &inline_sink, nullptr, nullptr);
  // With Finish the only drain point, the one chunk is the inline
  // delivery sequence in merge order.
  std::vector<WindowResult> merge_ordered = inline_sink.results();
  std::sort(merge_ordered.begin(), merge_ordered.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return std::tie(a.end, a.start, a.operator_id, a.key) <
                     std::tie(b.end, b.start, b.operator_id, b.key);
            });
  std::vector<Delivery> single_chunk;
  for (const WindowResult& r : merge_ordered) {
    single_chunk.push_back(Flatten(events.size(), r));
  }

  for (const uint32_t shards : {2u, 4u}) {
    for (const uint64_t drain_interval : {uint64_t{700}, events.size() + 1}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, drain interval " +
                   std::to_string(drain_interval));
      ShardedExecutor::Options options;
      options.num_keys = kKeys;
      options.num_shards = shards;
      options.batch_size = 64;
      options.drain_interval = drain_interval;
      BlockDeliveryLog log;
      ShardedExecutor executor(plan, options, &log);
      for (const Event& event : events) {
        ++log.pushed;
        executor.Push(event);
      }
      executor.Finish();
      // One OnBlock per (operator, instance) in each drain.
      std::set<std::tuple<uint64_t, int, TimeT, TimeT>> seen;
      for (const BlockDeliveryLog::Block& b : log.blocks) {
        EXPECT_TRUE(seen.emplace(b.position, b.op, b.start, b.end).second)
            << "operator " << b.op << " [" << b.start << ", " << b.end
            << ") twice in the drain at " << b.position;
      }
      ExpectChunksSorted(log.flat);
      EXPECT_EQ(log.results.ToMap(), inline_sink.ToMap());
      if (drain_interval > events.size()) {
        EXPECT_EQ(log.flat, single_chunk);
      } else {
        std::set<uint64_t> drains;
        for (const BlockDeliveryLog::Block& b : log.blocks) {
          drains.insert(b.position);
        }
        EXPECT_GT(drains.size(), 10u);
      }
    }
  }
}

TEST(ShardedExecutor, CheckpointAndResizeWithCloseThroughTailStayExact) {
  constexpr uint32_t kKeys = 8;
  constexpr TimeT kQuietFrom = 1000;
  constexpr TimeT kCut = 1400;
  constexpr TimeT kEnd = 3000;
  QueryPlan plan = SharedTestPlan();
  // From kQuietFrom to the cut only shard 0's keys (of 2) see events — for
  // longer than the largest window — so shard 1 holds open instances that
  // only Checkpoint's CloseThrough closes: a tail after its sorted run.
  std::vector<uint32_t> shard0_keys;
  for (uint32_t key = 0; key < kKeys; ++key) {
    if (ShardForKey(key, 2) == 0) shard0_keys.push_back(key);
  }
  ASSERT_FALSE(shard0_keys.empty());
  std::vector<Event> events;
  for (TimeT t = 0; t < kEnd; ++t) {
    const bool quiet = t >= kQuietFrom && t < kCut;
    events.push_back(
        {.timestamp = t,
         .key = quiet ? shard0_keys[static_cast<size_t>(t) % shard0_keys.size()]
                      : static_cast<uint32_t>(t % kKeys),
         .value = static_cast<double>((t * 37) % 101)});
  }
  CollectingSink reference;
  ExecutePlan(plan, events, kKeys, &reference, nullptr, nullptr);

  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  options.batch_size = 16;
  // The cut's delivery must contain both a shard-1 tail result and the
  // sorted runs; shard 1's last event precedes kQuietFrom.
  auto expect_tail_chunk = [&](const DeliveryLog& delivered) {
    ExpectChunksSorted(delivered.log);
    bool tail = false;
    for (const Delivery& d : delivered.log) {
      tail |= std::get<0>(d) == static_cast<uint64_t>(kCut) &&
              ShardForKey(std::get<5>(d), 2) == 1 &&
              std::get<4>(d) > kQuietFrom;
    }
    EXPECT_TRUE(tail) << "no CloseThrough tail at the cut";
  };

  DeliveryLog first_half;
  ShardedExecutor source(plan, options, &first_half);
  for (TimeT t = 0; t < kCut; ++t) {
    ++first_half.pushed;
    source.Push(events[static_cast<size_t>(t)]);
  }
  Result<ExecutorCheckpoint> checkpoint = source.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  expect_tail_chunk(first_half);
  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options target_options = options;
    target_options.num_shards = shards;
    CollectingSink second_half;
    ShardedExecutor target(plan, target_options, &second_half);
    ASSERT_TRUE(target.Restore(*checkpoint).ok());
    for (size_t i = kCut; i < events.size(); ++i) target.Push(events[i]);
    target.Finish();
    std::map<CollectingSink::ResultKey, double> combined =
        first_half.results.ToMap();
    for (const auto& [key, value] : second_half.ToMap()) {
      ASSERT_EQ(combined.count(key), 0u);  // No double emissions.
      combined[key] = value;
    }
    EXPECT_EQ(combined, reference.ToMap()) << shards << " shards";
  }

  for (uint32_t shards : {1u, 4u}) {
    DeliveryLog delivered;
    ShardedExecutor executor(plan, options, &delivered);
    for (const Event& event : events) {
      ++delivered.pushed;
      executor.Push(event);
      if (delivered.pushed == static_cast<uint64_t>(kCut)) {
        ASSERT_TRUE(executor.Resize(shards).ok());
        expect_tail_chunk(delivered);
      }
    }
    executor.Finish();
    EXPECT_EQ(delivered.results.results().size(), reference.results().size())
        << "resize to " << shards;
    EXPECT_EQ(delivered.results.ToMap(), reference.ToMap())
        << "resize to " << shards;
  }
}

// Holistic plans run unshared (QueryPlan::Original) and never checkpoint,
// but they shard like any other plan: HolisticWindowOperator keeps the
// same emission-order contract, so every drain chunk is in merge order
// and the union is a bare engine's result set, bit for bit.
TEST(ShardedExecutor, HolisticPlanMatchesBareEngineWithSortedChunks) {
  constexpr uint32_t kKeys = 16;
  const WindowSet set = WindowSet::Parse("{T(20), W(60, 20), T(40)}").value();
  const QueryPlan plan = QueryPlan::Original(set, Agg("MEDIAN"));
  const std::vector<Event> events = GenerateSyntheticStream(3000, kKeys, 26);
  CollectingSink reference;
  ExecutePlan(plan, events, kKeys, &reference, nullptr, nullptr);
  ASSERT_FALSE(reference.results().empty());

  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 16;
    options.drain_interval = 250;
    DeliveryLog delivered;
    ShardedExecutor executor(plan, options, &delivered);
    for (const Event& event : events) {
      ++delivered.pushed;
      executor.Push(event);
    }
    executor.Finish();
    // Inline mode delivers from Push, without drain chunks.
    if (shards > 1) ExpectChunksSorted(delivered.log);
    EXPECT_EQ(delivered.results.results().size(), reference.results().size());
    EXPECT_EQ(delivered.results.ToMap(), reference.ToMap());
  }
}

// A registered UDAF whose accumulate parks its worker while the flag is
// up — a deterministic way to back a shard's ring up.
std::atomic<bool> hold_accumulate{false};

void HeldSumAccumulate(AggState* state, double value) {
  while (hold_accumulate.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  state->v1 += value;
  ++state->n;
}
void HeldSumMerge(AggState* state, const AggState& other) {
  state->v1 += other.v1;
  state->n += other.n;
}
double HeldSumFinalize(const AggState& state) { return state.v1; }

AggFn RegisterHeldSumOnce() {
  static AggFn fn = [] {
    AggregateFunction held;
    held.name = "HELD_SUM";
    held.description = "sum whose accumulate can be held (test aggregate)";
    held.agg_class = AggClass::kAlgebraic;
    held.accumulate = HeldSumAccumulate;
    held.merge = HeldSumMerge;
    held.finalize = HeldSumFinalize;
    Result<AggFn> registered = AggregateRegistry::Global().Register(held);
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
    return *registered;
  }();
  return fn;
}

TEST(ShardedExecutor, RingOccupancyStaysWithinUnitRangeWhenSaturated) {
  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window::Tumbling(10)).ok());
  QueryPlan plan = QueryPlan::Original(windows, RegisterHeldSumOnce());
  ShardedExecutor::Options options;
  options.num_keys = 4;
  options.num_shards = 2;
  options.batch_size = 1;  // One hand-off batch per event.
  options.queue_capacity = 4;
  const size_t capacity = SpscQueue<int>(options.queue_capacity).capacity();
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);

  // Key 0 lives on shard 0. Its worker pops the first batch and parks in
  // accumulate; the next `capacity` batches fill the ring behind it, so
  // capacity + 1 batches are in flight — the most a shard can hold.
  hold_accumulate.store(true, std::memory_order_release);
  double total = 0.0;
  for (size_t i = 0; i <= capacity; ++i) {
    executor.Push({.timestamp = static_cast<TimeT>(i),
                   .key = 0,
                   .value = static_cast<double>(i)});
    total += static_cast<double>(i);
  }
  const double occupancy = executor.RingOccupancy();
  hold_accumulate.store(false, std::memory_order_release);
  EXPECT_LE(occupancy, 1.0);
  EXPECT_DOUBLE_EQ(occupancy, 1.0);

  executor.Finish();
  EXPECT_EQ(executor.RingOccupancy(), 0.0);
  ASSERT_EQ(sink.results().size(), 1u);
  EXPECT_EQ(sink.results()[0].value, total);
}

// A periodic drain point waits for the epoch it delivers, never for the
// one it closes: with both workers parked on their first batch of epoch
// 1, the drain point closing epoch 1 still returns, with epoch 0's
// results in the sink.
TEST(ShardedExecutor, PeriodicDrainPointDoesNotWaitForTheEpochItCloses) {
  constexpr uint32_t kKeys = 4;
  constexpr uint32_t kShards = 2;
  constexpr uint64_t kEpoch = 8;
  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window::Tumbling(10)).ok());
  const QueryPlan plan = QueryPlan::Original(windows, RegisterHeldSumOnce());
  // Events alternate between a key of each shard, so both shards see an
  // event at t >= 10 during epoch 0 and close [0, 10) in it.
  std::array<uint32_t, kShards> shard_key{};
  std::array<bool, kShards> found{};
  for (uint32_t key = 0; key < kKeys; ++key) {
    const uint32_t shard = ShardForKey(key, kShards);
    if (!found[shard]) shard_key[shard] = key;
    found[shard] = true;
  }
  ASSERT_TRUE(found[0] && found[1]);
  std::vector<Event> events;
  for (uint64_t i = 0; i < 2 * kEpoch; ++i) {
    events.push_back({.timestamp = static_cast<TimeT>(2 * i),
                      .key = shard_key[i % kShards],
                      .value = static_cast<double>(i + 1)});
  }
  PlanExecutor::Options exec_options;
  exec_options.num_keys = kKeys;
  CollectingSink epoch0;  // What a bare engine emits during epoch 0.
  PlanExecutor bare(plan, exec_options, &epoch0);
  for (uint64_t i = 0; i < kEpoch; ++i) bare.Push(events[i]);
  ASSERT_EQ(epoch0.results().size(), 2u);
  CollectingSink reference;
  ExecutePlan(plan, events, kKeys, &reference, nullptr, nullptr);

  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = kShards;
  options.batch_size = 1;
  options.drain_interval = kEpoch;
  CollectingSink sink;
  ShardedExecutor executor(plan, options, &sink);
  for (uint64_t i = 0; i < kEpoch; ++i) executor.Push(events[i]);
  executor.Counters();  // Quiesce: both workers have folded epoch 0.
  EXPECT_TRUE(sink.results().empty()) << "epoch 0 delivered as it closed";

  hold_accumulate.store(true, std::memory_order_release);
  std::atomic<bool> drain_returned{false};
  std::atomic<bool> watchdog_fired{false};
  std::thread watchdog([&] {
    // A drain point that waits for the parked workers fails the test
    // after 2 s instead of hanging it.
    for (int ms = 0; ms < 2000 && !drain_returned.load(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!drain_returned.load()) {
      watchdog_fired.store(true);
      hold_accumulate.store(false, std::memory_order_release);
    }
  });
  // Each push hands its batch over at once; the 16th is the drain point.
  for (uint64_t i = kEpoch; i < 2 * kEpoch; ++i) executor.Push(events[i]);
  const bool parked = executor.RingOccupancy() > 0.0;
  drain_returned.store(true);
  const std::map<CollectingSink::ResultKey, double> delivered = sink.ToMap();
  hold_accumulate.store(false, std::memory_order_release);
  watchdog.join();
  EXPECT_FALSE(watchdog_fired.load()) << "the drain point waited for epoch 1";
  EXPECT_TRUE(parked);
  EXPECT_EQ(delivered, epoch0.ToMap());

  executor.Finish();
  EXPECT_EQ(sink.ToMap(), reference.ToMap());
}

TEST(ShardedExecutor, CheckpointRestoresAcrossShardCounts) {
  constexpr uint32_t kKeys = 12;
  std::vector<Event> events = GenerateSyntheticStream(16000, kKeys, 23);
  const size_t half = events.size() / 2;
  QueryPlan plan = SharedTestPlan();

  CollectingSink reference;
  ExecutePlan(plan, events, kKeys, &reference, nullptr, nullptr);

  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  CollectingSink first_half;
  ShardedExecutor source(plan, options, &first_half);
  for (size_t i = 0; i < half; ++i) source.Push(events[i]);
  Result<ExecutorCheckpoint> checkpoint = source.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  // The global checkpoint restores into any shard count; the union of
  // pre-checkpoint and continuation results equals the uninterrupted run.
  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options target_options;
    target_options.num_keys = kKeys;
    target_options.num_shards = shards;
    CollectingSink second_half;
    ShardedExecutor target(plan, target_options, &second_half);
    ASSERT_TRUE(target.Restore(*checkpoint).ok());
    for (size_t i = half; i < events.size(); ++i) target.Push(events[i]);
    target.Finish();

    std::map<CollectingSink::ResultKey, double> combined =
        first_half.ToMap();
    for (const auto& [key, value] : second_half.ToMap()) {
      ASSERT_EQ(combined.count(key), 0u);  // No double emissions.
      combined[key] = value;
    }
    EXPECT_EQ(combined, reference.ToMap()) << shards << " shards";
  }
}

// --- Out-of-order ingestion ------------------------------------------------

class LateCollector {
 public:
  void Consume(const Event& event) { events.push_back(event); }
  std::vector<Event> events;
};

TEST(ShardedExecutorDisorder, ShuffledStreamMatchesSortedReference) {
  constexpr uint32_t kKeys = 16;
  constexpr TimeT kMaxDelay = 64;
  std::vector<Event> sorted = GenerateSyntheticStream(20000, kKeys, 41);
  std::vector<Event> shuffled =
      ApplyBoundedDisorder(sorted, static_cast<size_t>(kMaxDelay), 5);
  QueryPlan plan = SharedTestPlan();

  CollectingSink reference;
  uint64_t reference_ops = 0;
  ExecutePlan(plan, sorted, kKeys, &reference, nullptr, &reference_ops);

  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 16;
    options.drain_interval = 3000;
    options.max_delay = kMaxDelay;
    CollectingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    for (const Event& event : shuffled) executor.Push(event);
    EXPECT_GT(executor.reorder_buffer_peak(), 0u);
    EXPECT_EQ(executor.current_watermark(),
              sorted.back().timestamp - kMaxDelay);
    executor.Finish();
    EXPECT_EQ(executor.late_events(), 0u) << shards << " shards";
    EXPECT_EQ(executor.reorder_buffered(), 0u);  // Finish drains.
    EXPECT_EQ(sink.ToMap(), reference.ToMap()) << shards << " shards";
    EXPECT_EQ(executor.TotalAccumulateOps(), reference_ops);
  }
}

TEST(ShardedExecutorDisorder, LatePolicyIsIdenticalAcrossShardCounts) {
  constexpr uint32_t kKeys = 8;
  // Disorder (up to 96 positions) deeper than the tolerance (16): some
  // events must go late, and which ones — plus every result — has to be
  // invariant to the shard count, because lateness is decided against the
  // global watermark before partitioning.
  std::vector<Event> sorted = GenerateSyntheticStream(12000, kKeys, 42);
  std::vector<Event> shuffled = ApplyBoundedDisorder(sorted, 96, 6);
  QueryPlan plan = SharedTestPlan();

  std::map<CollectingSink::ResultKey, double> baseline_results;
  std::vector<Event> baseline_late;
  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 32;
    options.max_delay = 16;
    LateCollector late;
    options.late_sink = [&late](const Event& e) { late.Consume(e); };
    CollectingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    for (const Event& event : shuffled) executor.Push(event);
    executor.Finish();

    EXPECT_GT(executor.late_events(), 0u);
    EXPECT_EQ(executor.late_events(), late.events.size());
    if (shards == 1) {
      baseline_results = sink.ToMap();
      baseline_late = late.events;
      continue;
    }
    EXPECT_EQ(sink.ToMap(), baseline_results) << shards << " shards";
    ASSERT_EQ(late.events.size(), baseline_late.size());
    for (size_t i = 0; i < late.events.size(); ++i) {
      EXPECT_EQ(late.events[i].timestamp, baseline_late[i].timestamp);
      EXPECT_EQ(late.events[i].key, baseline_late[i].key);
      EXPECT_EQ(late.events[i].value, baseline_late[i].value);
    }
  }
}

TEST(ShardedExecutorDisorder, DeliverySequenceIsIdenticalAcrossRunsAndBatches) {
  constexpr uint32_t kKeys = 8;
  // Disorder deeper than the tolerance, so late side-output interleaves
  // with the result chunks.
  std::vector<Event> sorted = GenerateSyntheticStream(12000, kKeys, 45);
  std::vector<Event> shuffled = ApplyBoundedDisorder(sorted, 96, 9);
  QueryPlan plan = SharedTestPlan();

  auto run = [&](size_t batch_size) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = 4;
    options.batch_size = batch_size;
    options.drain_interval = 700;
    options.max_delay = 16;
    DeliveryLog delivered;
    options.late_sink = [&delivered](const Event& e) {
      delivered.Consume(e);
    };
    ShardedExecutor executor(plan, options, &delivered);
    for (const Event& event : shuffled) {
      ++delivered.pushed;
      executor.Push(event);
    }
    executor.Finish();
    EXPECT_GT(executor.late_events(), 0u);
    return delivered.log;
  };

  const std::vector<Delivery> first = run(16);
  ASSERT_FALSE(first.empty());
  ExpectChunksSorted(first);
  EXPECT_EQ(run(16), first) << "second run";
  EXPECT_EQ(run(256), first) << "batch_size 256";
}

TEST(ShardedExecutorDisorder, CheckpointCarriesBuffersAcrossShardCounts) {
  constexpr uint32_t kKeys = 12;
  constexpr TimeT kMaxDelay = 48;
  std::vector<Event> sorted = GenerateSyntheticStream(16000, kKeys, 43);
  std::vector<Event> shuffled =
      ApplyBoundedDisorder(sorted, static_cast<size_t>(kMaxDelay), 7);
  const size_t half = shuffled.size() / 2;
  QueryPlan plan = SharedTestPlan();

  CollectingSink reference;
  ExecutePlan(plan, sorted, kKeys, &reference, nullptr, nullptr);

  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.num_shards = 2;
  options.max_delay = kMaxDelay;
  CollectingSink first_half;
  ShardedExecutor source(plan, options, &first_half);
  for (size_t i = 0; i < half; ++i) source.Push(shuffled[i]);
  Result<ExecutorCheckpoint> checkpoint = source.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  // Mid-stream under disorder the snapshot must hold in-flight events.
  EXPECT_GT(checkpoint->reorder.events.size(), 0u);
  EXPECT_TRUE(checkpoint->reorder.any_seen);

  // A strict-order executor cannot adopt in-flight disorder.
  ShardedExecutor::Options strict_options;
  strict_options.num_keys = kKeys;
  CollectingSink strict_sink;
  ShardedExecutor strict(plan, strict_options, &strict_sink);
  EXPECT_EQ(strict.Restore(*checkpoint).code(),
            StatusCode::kInvalidArgument);

  // Mirror direction: a strict-order mid-stream snapshot has no
  // event-time clock, so a bounded-lateness executor must reject it
  // rather than silently accept arbitrarily old events.
  for (const Event& event : sorted) strict.Push(event);
  Result<ExecutorCheckpoint> strict_checkpoint = strict.Checkpoint();
  ASSERT_TRUE(strict_checkpoint.ok());
  CollectingSink tolerant_sink;
  ShardedExecutor tolerant(plan, options, &tolerant_sink);
  EXPECT_EQ(tolerant.Restore(*strict_checkpoint).code(),
            StatusCode::kInvalidArgument);

  // A different lateness bound would move the watermark relative to the
  // snapshotted engines' progress — also rejected.
  ShardedExecutor::Options wider_options = options;
  wider_options.max_delay = kMaxDelay * 2;
  CollectingSink wider_sink;
  ShardedExecutor wider(plan, wider_options, &wider_sink);
  EXPECT_EQ(wider.Restore(*checkpoint).code(),
            StatusCode::kInvalidArgument);

  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedExecutor::Options target_options = options;
    target_options.num_shards = shards;
    CollectingSink second_half;
    ShardedExecutor target(plan, target_options, &second_half);
    ASSERT_TRUE(target.Restore(*checkpoint).ok());
    EXPECT_EQ(target.reorder_buffered(), checkpoint->reorder.events.size());
    for (size_t i = half; i < shuffled.size(); ++i) target.Push(shuffled[i]);
    target.Finish();
    EXPECT_EQ(target.late_events(), 0u);

    std::map<CollectingSink::ResultKey, double> combined =
        first_half.ToMap();
    for (const auto& [key, value] : second_half.ToMap()) {
      ASSERT_EQ(combined.count(key), 0u);  // No double emissions.
      combined[key] = value;
    }
    EXPECT_EQ(combined, reference.ToMap()) << shards << " shards";
  }
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return hash;
}

// A disordered mid-stream checkpoint serializes to the same bytes at every
// width, with or without a resize round trip before the cut: the buffered
// events are in arrival order, the clock and counters are global, and the
// operator state is canonical (CloseThrough). Pinned by length and FNV-1a.
TEST(ShardedExecutorDisorder, CheckpointBytesAreWidthInvariant) {
  constexpr uint32_t kKeys = 12;
  const std::vector<Event> events =
      ApplyBoundedDisorder(GenerateSyntheticStream(16000, kKeys, 43), 96, 7);
  WindowSet windows;
  for (const Window& window : {Window::Tumbling(20), Window::Tumbling(30),
                               Window::Tumbling(40), Window(60, 20)}) {
    ASSERT_TRUE(windows.Add(window).ok());
  }
  Result<OptimizationOutcome> outcome = OptimizeQuery(windows, Agg("MIN"));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const QueryPlan plan =
      QueryPlan::FromMinCostWcg(outcome->with_factors, Agg("MIN"));

  struct Pin {
    size_t cut;
    size_t bytes;
    uint64_t fnv;
  };
  for (const Pin& pin : {Pin{5001, 2166, 2266241597537726816ull},
                         Pin{8000, 2834, 3621688614779956436ull},
                         Pin{12345, 2222, 11462218298458642302ull}}) {
    for (const uint32_t shards : {1u, 2u, 3u, 4u}) {
      for (const bool resize : {false, true}) {
        SCOPED_TRACE("cut " + std::to_string(pin.cut) + ", " +
                     std::to_string(shards) + " shards" +
                     (resize ? ", resized" : ""));
        ShardedExecutor::Options options;
        options.num_keys = kKeys;
        options.num_shards = shards;
        options.max_delay = 48;
        options.drain_interval = 300;
        CountingSink sink;
        ShardedExecutor executor(plan, options, &sink);
        for (size_t i = 0; i < pin.cut; ++i) {
          if (resize && i == pin.cut / 3) {
            ASSERT_TRUE(executor.Resize(shards == 4 ? 1 : 4).ok());
          }
          if (resize && i == 2 * pin.cut / 3) {
            ASSERT_TRUE(executor.Resize(shards).ok());
          }
          executor.Push(events[i]);
        }
        Result<ExecutorCheckpoint> checkpoint = executor.Checkpoint();
        ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
        EXPECT_FALSE(checkpoint->reorder.events.empty());
        const std::string bytes = checkpoint->Serialize();
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(Fnv1a(bytes), pin.fnv);
      }
    }
  }
}

// The disorder twin of
// ShardedExecutor.EveryDrainChunkIsTheSortedUnionOfItsEpoch. Drain points
// fall between pushes and count late events too, so the
// chunk at periodic drain point n is the sorted union of what one bare
// engine per shard produces from the events released by epoch n − 1's
// pushes. A test-side Reorderer under the same watermark supplies the
// releases; late side-output is logged at its push, ahead of that push's
// drain point.
TEST(ShardedExecutorDisorder, EveryDrainChunkIsTheSortedUnionOfItsEpoch) {
  constexpr uint32_t kKeys = 8;
  constexpr uint64_t kDrainInterval = 500;
  constexpr TimeT kMaxDelay = 32;
  // Disorder deeper than the tolerance, so some pushes release nothing.
  const std::vector<Event> events =
      ApplyBoundedDisorder(GenerateSyntheticStream(6100, kKeys, 25), 96, 11);
  const QueryPlan plan = SharedTestPlan();

  for (const uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.batch_size = 16;
    options.drain_interval = kDrainInterval;
    options.max_delay = kMaxDelay;
    DeliveryLog delivered;
    options.late_sink = [&delivered](const Event& e) {
      delivered.Consume(e);
    };
    ShardedExecutor executor(plan, options, &delivered);
    for (const Event& event : events) {
      ++delivered.pushed;
      executor.Push(event);
    }
    executor.Finish();
    EXPECT_GT(executor.late_events(), 0u);
    ExpectChunksSorted(delivered.log);

    std::vector<CollectingSink> shard_sinks(shards);
    std::vector<std::unique_ptr<PlanExecutor>> engines;
    PlanExecutor::Options exec_options;
    exec_options.num_keys = kKeys;
    for (CollectingSink& sink : shard_sinks) {
      engines.push_back(
          std::make_unique<PlanExecutor>(plan, exec_options, &sink));
    }
    const auto release = [&](const Event& e) {
      engines[ShardForKey(e.key, shards)]->Push(e);
    };
    std::vector<Delivery> expected;
    std::vector<size_t> taken(shards, 0);
    std::vector<WindowResult> outstanding;  // The previous epoch's output.
    auto take_epoch = [&] {
      for (uint32_t s = 0; s < shards; ++s) {
        const std::vector<WindowResult>& results = shard_sinks[s].results();
        outstanding.insert(outstanding.end(), results.begin() + taken[s],
                           results.end());
        taken[s] = results.size();
      }
    };
    auto deliver = [&](uint64_t position) {
      std::sort(outstanding.begin(), outstanding.end(),
                [](const WindowResult& a, const WindowResult& b) {
                  return std::tie(a.end, a.start, a.operator_id, a.key) <
                         std::tie(b.end, b.start, b.operator_id, b.key);
                });
      for (const WindowResult& r : outstanding) {
        expected.push_back(Flatten(position, r));
      }
      outstanding.clear();
    };
    Reorderer reorderer;
    TimeT max_seen = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (i > 0 && e.timestamp < max_seen - kMaxDelay) {
        expected.push_back({i + 1, true, 0, e.timestamp, 0, e.key, e.value});
      } else {
        max_seen = i > 0 ? std::max(max_seen, e.timestamp) : e.timestamp;
        reorderer.Buffer(e, i);
        reorderer.ReleaseThrough(max_seen - kMaxDelay, release);
      }
      if ((i + 1) % kDrainInterval == 0) {
        deliver(i + 1);
        take_epoch();
      }
    }
    reorderer.ReleaseAll(release);
    for (auto& engine : engines) engine->Finish();
    take_epoch();
    deliver(events.size());
    ASSERT_GT(expected.size(), 0u);
    EXPECT_EQ(delivered.log, expected);
  }
}

// Every pushed event counts toward the periodic drain point, late ones
// included, so a run of late events cannot hold back results the
// workers already produced: once it is longer than two drain intervals
// plus one round of the keys, a sharded executor has delivered what the
// inline one has.
TEST(ShardedExecutorDisorder, LateRunDoesNotHoldResultsBack) {
  constexpr uint32_t kKeys = 16;
  constexpr TimeT kInOrder = 5000;
  const uint64_t late_run =
      2 * ShardedExecutor::Options{}.drain_interval + kKeys + 1;
  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window::Tumbling(10)).ok());
  const QueryPlan plan = QueryPlan::Original(windows, Agg("SUM"));
  const auto delivered_after_late_run = [&](uint32_t shards) {
    ShardedExecutor::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.max_delay = 16;
    CountingSink sink;
    ShardedExecutor executor(plan, options, &sink);
    for (TimeT t = 0; t < kInOrder; ++t) {
      executor.Push({.timestamp = t,
                     .key = static_cast<uint32_t>(t) % kKeys,
                     .value = 1.0});
    }
    for (uint64_t i = 0; i < late_run; ++i) {
      executor.Push({.timestamp = 0,
                     .key = static_cast<uint32_t>(i % kKeys),
                     .value = 1.0});
    }
    EXPECT_EQ(executor.late_events(), late_run);
    return sink.count();
  };
  const uint64_t inline_delivered = delivered_after_late_run(1);
  EXPECT_GT(inline_delivered, 0u);
  for (const uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(delivered_after_late_run(shards), inline_delivered)
        << shards << " shards";
  }
}

// Restore rejects reorder sections no stage could have written — a
// buffered event behind the watermark or at a negative timestamp, seqs
// out of order or at next_seq, buffered events without a clock — and
// changes nothing doing so: no drain point, no state. A valid Restore
// afterwards resumes to the unforged result.
TEST(ShardedExecutorDisorder, RestoreRejectsImpossibleReorderSections) {
  constexpr uint32_t kKeys = 4;
  WindowSet windows;
  ASSERT_TRUE(windows.Add(Window::Tumbling(10)).ok());
  const QueryPlan plan = QueryPlan::Original(windows, Agg("SUM"));
  const auto event = [](TimeT t) {
    return Event{.timestamp = t,
                 .key = static_cast<uint32_t>(t) % kKeys,
                 .value = 1.0};
  };
  ShardedExecutor::Options options;
  options.num_keys = kKeys;
  options.max_delay = 5;
  CountingSink source_sink;
  ShardedExecutor source(plan, options, &source_sink);
  for (TimeT t = 0; t < 100; ++t) source.Push(event(t));
  Result<ExecutorCheckpoint> valid = source.Checkpoint();
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  ASSERT_EQ(valid->reorder.events.size(), 5u);
  ASSERT_EQ(valid->reorder.events.front().seq, 95u);

  std::vector<std::pair<std::string, ExecutorCheckpoint>> forged;
  const auto forge = [&](const std::string& name) -> ExecutorCheckpoint& {
    forged.emplace_back(name, *valid);
    return forged.back().second;
  };
  for (const Event& early : {event(3), Event{.timestamp = -50, .key = 1}}) {
    std::vector<BufferedEvent>& events =
        forge(early.timestamp < 0 ? "negative timestamp"
                                  : "behind the watermark")
            .reorder.events;
    events.insert(events.begin(), {94, early});
  }
  forge("ahead of max_seen").reorder.events.back().event.timestamp = 100;
  forge("repeated seq").reorder.events[1].seq = 95;
  forge("seq at next_seq").reorder.next_seq = 99;
  forge("no clock").reorder.any_seen = false;

  for (const uint32_t shards : {1u, 2u}) {
    ShardedExecutor::Options target_options = options;
    target_options.num_shards = shards;
    CountingSink sink;
    ShardedExecutor target(plan, target_options, &sink);
    // Some state of its own, results still buffered at 2 shards: a
    // rejected Restore must not reach the drain point.
    for (TimeT t = 0; t < 60; ++t) target.Push(event(t));
    const uint64_t delivered = sink.count();
    const uint64_t buffered = target.reorder_buffered();
    const TimeT watermark = target.current_watermark();
    for (const auto& [name, checkpoint] : forged) {
      SCOPED_TRACE(name + ", " + std::to_string(shards) + " shards");
      EXPECT_EQ(target.Restore(checkpoint).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(sink.count(), delivered);
      EXPECT_EQ(target.reorder_buffered(), buffered);
      EXPECT_EQ(target.current_watermark(), watermark);
      EXPECT_EQ(target.late_events(), 0u);
    }
    ASSERT_TRUE(target.Restore(*valid).ok());
    EXPECT_EQ(target.reorder_buffered(), 5u);
    const double before = sink.checksum();
    target.Push(event(100));
    target.Finish();
    EXPECT_EQ(sink.checksum() - before, 11.0) << shards << " shards";
  }
}

// --- Sharded sessions: differential equivalence under churn ----------------

// Results of every query of a churned session, keyed by
// (query slot, query-local operator, start, end, key).
using SessionResults =
    std::map<std::tuple<int, int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback Tagged(SessionResults* out, int tag) {
  return [out, tag](const WindowResult& r) {
    (*out)[{tag, r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

QueryBuilder PerDevice(TimeT range) {
  return Query().Max("v").From("fleet").PerKey("device").Tumbling(range);
}

// One add + one remove mid-stream, then finish: exercises the sharded
// replan path (checkpoint merge → lineage migration → split restore) and
// the final flush.
SessionResults RunChurnedSession(uint32_t num_shards,
                                 const std::vector<Event>& events) {
  StreamSession::Options options;
  options.num_keys = 8;
  options.num_shards = num_shards;
  StreamSession session(options);

  SessionResults results;
  EXPECT_TRUE(
      session.AddQuery(PerDevice(20).Hopping(60, 20), Tagged(&results, 0))
          .ok());
  Result<QueryId> doomed = session.AddQuery(PerDevice(80));
  EXPECT_TRUE(doomed.ok());

  const size_t third = events.size() / 3;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == third) {
      EXPECT_TRUE(session.RemoveQuery(*doomed).ok());
    }
    if (i == 2 * third) {
      EXPECT_TRUE(
          session.AddQuery(PerDevice(40), Tagged(&results, 1)).ok());
    }
    EXPECT_TRUE(session.Push(events[i]).ok());
  }
  EXPECT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().num_shards, EffectiveShards(num_shards, 8));
  return results;
}

TEST(ShardedSession, ChurnedSessionsAreDifferentiallyEquivalent) {
  std::vector<Event> events = GenerateSyntheticStream(12000, 8, 24);
  SessionResults baseline = RunChurnedSession(1, events);
  ASSERT_FALSE(baseline.empty());
  for (uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(RunChurnedSession(shards, events), baseline)
        << shards << " shards";
  }
}

TEST(ShardedSession, KeylessSessionCollapsesToOneShard) {
  StreamSession::Options options;
  options.num_keys = 1;
  options.num_shards = 8;
  StreamSession session(options);
  SessionResults results;
  ASSERT_TRUE(session
                  .AddQuery(Query().Min("v").From("s").Tumbling(20),
                            Tagged(&results, 0))
                  .ok());
  for (TimeT t = 0; t < 100; ++t) {
    ASSERT_TRUE(session.Push({.timestamp = t, .key = 0, .value = 1.0}).ok());
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(session.Stats().num_shards, 1u);
  EXPECT_FALSE(results.empty());
}

// A result reaches its callback no earlier than its trigger event — the
// first arrival at or past its window end plus max_delay — and at most
// two drain intervals plus one round of the keys after it: a shard closes
// an instance on the next event of its own keys, and the result then
// waits for the drain point closing the epoch after that event's.
TEST(ShardedSession, DeliveryLagIsBoundedByTwoDrainIntervals) {
  constexpr uint32_t kKeys = 16;
  const std::vector<Event> events = GenerateSyntheticStream(40000, kKeys, 28);
  const uint64_t bound = 2 * ShardedExecutor::Options{}.drain_interval + kKeys;
  // (pushed events when delivered, window end) per delivered result.
  using Arrivals = std::vector<std::pair<uint64_t, TimeT>>;
  const auto run = [&](uint32_t shards, TimeT max_delay, Arrivals* arrivals) {
    StreamSession::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.max_delay = max_delay;
    StreamSession session(options);
    SessionResults results;
    uint64_t pushed = 0;
    const std::vector<QueryBuilder> queries = {
        PerDevice(20).Hopping(60, 20), PerDevice(40), PerDevice(120)};
    for (size_t tag = 0; tag < queries.size(); ++tag) {
      const StreamSession::ResultCallback tagged =
          Tagged(&results, static_cast<int>(tag));
      EXPECT_TRUE(session
                      .AddQuery(queries[tag],
                                [&, tagged](const WindowResult& r) {
                                  tagged(r);
                                  arrivals->emplace_back(pushed, r.end);
                                })
                      .ok());
    }
    for (const Event& event : events) {
      ++pushed;
      EXPECT_TRUE(session.Push(event).ok());
    }
    ++pushed;  // Finish's deliveries come after the last event.
    EXPECT_TRUE(session.Finish().ok());
    return results;
  };

  for (const TimeT max_delay : {TimeT{0}, TimeT{64}}) {
    SessionResults baseline;
    for (const uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, max_delay " +
                   std::to_string(max_delay));
      Arrivals arrivals;
      const SessionResults results = run(shards, max_delay, &arrivals);
      if (shards == 1) {
        baseline = results;
        ASSERT_FALSE(baseline.empty());
      } else {
        EXPECT_EQ(results, baseline);
      }
      size_t checked = 0;
      for (const auto& [position, end] : arrivals) {
        if (position > events.size()) continue;  // Delivered by Finish.
        // Timestamps equal indices (η = 1), so the trigger is the event
        // at end + max_delay, pushed as number end + max_delay + 1.
        const uint64_t trigger = static_cast<uint64_t>(end + max_delay) + 1;
        ASSERT_GE(position, trigger) << "window end " << end;
        ASSERT_LE(position, trigger + bound) << "window end " << end;
        ++checked;
      }
      EXPECT_GT(checked, arrivals.size() / 2);
    }
  }
}

TEST(ShardedSession, StatsReportShardCountAndPredictedBoost) {
  StreamSession::Options options;
  options.num_keys = 8;
  options.num_shards = 4;
  StreamSession session(options);
  ASSERT_TRUE(session.AddQuery(PerDevice(20)).ok());
  ASSERT_TRUE(session.AddQuery(PerDevice(40)).ok());
  StreamSession::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.num_shards, 4u);
  // The idealized model: sharding multiplies the sharing boost by the
  // effective shard count.
  EXPECT_DOUBLE_EQ(stats.predicted_shard_boost, stats.predicted_boost * 4);
}

}  // namespace
}  // namespace fw
