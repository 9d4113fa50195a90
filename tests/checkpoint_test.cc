#include "exec/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "exec/engine.h"
#include "factor/optimizer.h"
#include "runtime/sharded_executor.h"
#include "workload/datagen.h"

namespace fw {
namespace {

QueryPlan Example7FactorPlan(AggFn agg = Agg("MIN")) {
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40)}").value();
  MinCostWcg wcg =
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy);
  return QueryPlan::FromMinCostWcg(wcg, agg);
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  ExecutorCheckpoint checkpoint;
  OperatorCheckpoint op;
  op.operator_id = 3;
  op.next_m = 17;
  op.next_open_start = 170;
  op.accumulate_ops = 12345;
  InstanceCheckpoint inst;
  inst.m = 16;
  AggState s;
  s.v1 = 3.14159265358979;
  s.v2 = -0.0;
  s.n = 42;
  inst.states = {s, AggState{}};
  op.open_instances.push_back(inst);
  checkpoint.operators.push_back(op);

  Result<ExecutorCheckpoint> restored =
      ExecutorCheckpoint::Deserialize(checkpoint.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->operators.size(), 1u);
  const OperatorCheckpoint& r = restored->operators[0];
  EXPECT_EQ(r.operator_id, 3);
  EXPECT_EQ(r.next_m, 17);
  EXPECT_EQ(r.next_open_start, 170);
  EXPECT_EQ(r.accumulate_ops, 12345u);
  ASSERT_EQ(r.open_instances.size(), 1u);
  ASSERT_EQ(r.open_instances[0].states.size(), 2u);
  // Bit-exact doubles (including the signed zero).
  EXPECT_EQ(r.open_instances[0].states[0].v1, 3.14159265358979);
  EXPECT_TRUE(std::signbit(r.open_instances[0].states[0].v2));
  EXPECT_EQ(r.open_instances[0].states[0].n, 42u);
}

// Forged-input builders, written field by field the way Serialize lays
// them out (exec/checkpoint.h).
ByteWriter Header(uint32_t num_operators) {
  ByteWriter w;
  w.Bytes("FWCB", 4);
  w.U32(num_operators);
  return w;
}

void WriteReorderHeader(ByteWriter* w, uint32_t num_buffered) {
  w->U8(1);  // Section flag.
  w->U8(1);  // any_seen.
  w->I64(5);
  w->I64(2);
  w->U64(2);
  w->U64(0);
  w->U64(1);
  w->U32(num_buffered);
}

bool Parses(ByteWriter w) {
  return ExecutorCheckpoint::Deserialize(w.Take()).ok();
}

TEST(Checkpoint, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ExecutorCheckpoint::Deserialize("").ok());
  EXPECT_FALSE(ExecutorCheckpoint::Deserialize("BOGUS 1 0").ok());
  {
    ByteWriter w = Header(0);
    w.U8(0);
    EXPECT_TRUE(Parses(std::move(w)));  // The smallest valid checkpoint.
  }
  EXPECT_FALSE(Parses(Header(0)));  // No reorder-section flag.
  {
    ByteWriter w = Header(0);
    w.U8(2);  // A flag is 0 or 1.
    EXPECT_FALSE(Parses(std::move(w)));
  }
  {
    ByteWriter w = Header(1);  // One operator, cut off mid-record.
    w.U32(0);
    w.I64(0);
    EXPECT_FALSE(Parses(std::move(w)));
  }
  {
    ByteWriter w = Header(0);
    w.U8(1);  // Flag set, section missing.
    EXPECT_FALSE(Parses(std::move(w)));
  }
  {
    ByteWriter w = Header(0);
    WriteReorderHeader(&w, 1);  // One buffered event, cut off.
    w.U64(0);
    w.I64(3);
    EXPECT_FALSE(Parses(std::move(w)));
  }
  {
    ByteWriter w = Header(0);
    WriteReorderHeader(&w, 0);
    w.U8(0x7f);  // Junk after a complete reorder section.
    EXPECT_FALSE(Parses(std::move(w)));
  }
  {
    ByteWriter w = Header(0);
    w.U8(1);  // A flagged section that is inactive is not canonical.
    w.U8(0);
    for (int i = 0; i < 5; ++i) w.U64(0);
    w.U32(0);
    EXPECT_FALSE(Parses(std::move(w)));
  }
}

TEST(Checkpoint, LegacyTextCheckpointIsRejectedByFormatName) {
  Result<ExecutorCheckpoint> legacy =
      ExecutorCheckpoint::Deserialize("FWCKPT 1 0\n");
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(legacy.status().message().find("binary ExecutorCheckpoint"),
            std::string::npos)
      << legacy.status().ToString();
}

TEST(Checkpoint, ReorderSectionRoundTripsAndInactiveSectionIsOneByte) {
  ExecutorCheckpoint checkpoint;
  OperatorCheckpoint op;
  op.operator_id = 0;
  checkpoint.operators.push_back(op);
  // A strict-order checkpoint (inactive reorder stage) ends with a
  // cleared section flag and nothing after it.
  const std::string strict = checkpoint.Serialize();
  EXPECT_EQ(strict.back(), '\0');
  EXPECT_TRUE(ExecutorCheckpoint::Deserialize(strict).ok());

  checkpoint.reorder.any_seen = true;
  checkpoint.reorder.max_seen = 90;
  checkpoint.reorder.max_delay = 6;
  checkpoint.reorder.next_seq = 12;
  checkpoint.reorder.late_events = 4;
  checkpoint.reorder.buffer_peak = 7;
  checkpoint.reorder.events.push_back(
      {10, Event{.timestamp = 88, .key = 3, .value = -0.0}});
  checkpoint.reorder.events.push_back(
      {11, Event{.timestamp = 86, .key = 1, .value = 2.5}});

  // The active section follows the operators, behind a set flag.
  const std::string active = checkpoint.Serialize();
  EXPECT_EQ(active.compare(0, strict.size() - 1, strict, 0,
                           strict.size() - 1),
            0);
  EXPECT_EQ(active[strict.size() - 1], '\1');
  Result<ExecutorCheckpoint> restored =
      ExecutorCheckpoint::Deserialize(active);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->reorder.any_seen);
  EXPECT_EQ(restored->reorder.max_seen, 90);
  EXPECT_EQ(restored->reorder.max_delay, 6);
  EXPECT_EQ(restored->reorder.next_seq, 12u);
  EXPECT_EQ(restored->reorder.late_events, 4u);
  EXPECT_EQ(restored->reorder.buffer_peak, 7u);
  ASSERT_EQ(restored->reorder.events.size(), 2u);
  EXPECT_EQ(restored->reorder.events[0].seq, 10u);
  EXPECT_EQ(restored->reorder.events[0].event.timestamp, 88);
  EXPECT_EQ(restored->reorder.events[0].event.key, 3u);
  EXPECT_TRUE(std::signbit(restored->reorder.events[0].event.value));
  EXPECT_EQ(restored->reorder.events[1].event.value, 2.5);
  // Byte-stable: serializing the restored snapshot is the identity.
  EXPECT_EQ(restored->Serialize(), active);
}

TEST(Checkpoint, SketchStatesRoundTripBitwise) {
  // Out-of-line (sketch) aggregate state travels as its raw extension
  // bytes inside the state record.
  ExecutorCheckpoint checkpoint;
  OperatorCheckpoint op;
  op.operator_id = 0;
  op.next_m = 2;
  InstanceCheckpoint inst;
  inst.m = 1;
  AggState sketchy;
  for (int i = 1; i <= 500; ++i) {
    Agg("P99")->accumulate(&sketchy, static_cast<double>(i));
  }
  // A cleared pooled state keeps its (zeroed) allocation; the canonical
  // form drops it.
  AggState recycled = sketchy;
  recycled.Clear();
  inst.states = {sketchy, recycled};
  op.open_instances.push_back(std::move(inst));
  checkpoint.operators.push_back(std::move(op));

  const std::string bytes = checkpoint.Serialize();
  Result<ExecutorCheckpoint> restored =
      ExecutorCheckpoint::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const AggState& state = restored->operators[0].open_instances[0].states[0];
  EXPECT_EQ(state.n, 500u);
  ASSERT_EQ(state.ext_size(), Agg("P99")->state_bytes);
  EXPECT_EQ(restored->operators[0].open_instances[0].states[1].ext_size(),
            0u);
  // Bitwise: finalize agrees exactly and re-serialization is the identity.
  EXPECT_EQ(Agg("P99")->finalize(state), Agg("P99")->finalize(sketchy));
  EXPECT_EQ(restored->Serialize(), bytes);

  // A truncated payload, and an empty state that carries one, fail.
  EXPECT_FALSE(
      ExecutorCheckpoint::Deserialize(bytes.substr(0, bytes.size() / 2))
          .ok());
  ByteWriter w = Header(1);
  w.U32(0);
  w.I64(0);
  w.I64(0);
  w.U64(0);
  w.U32(1);  // One instance ...
  w.I64(0);
  w.U32(1);  // ... with one key ...
  w.F64(0);
  w.F64(0);
  w.U64(0);  // ... whose state is empty ...
  w.U32(2);  // ... yet has a payload.
  w.U8(0xff);
  w.U8(0xff);
  w.U8(0);
  EXPECT_FALSE(Parses(std::move(w)));
}

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(Checkpoint, GoldenBytes) {
  // Pins the layout byte for byte, so any change to it is deliberate:
  // one operator with a built-in state and a P99 state, plus an active
  // reorder section.
  ExecutorCheckpoint checkpoint;
  OperatorCheckpoint op;
  op.operator_id = 2;
  op.next_m = 3;
  op.next_open_start = 30;
  op.accumulate_ops = 5;
  InstanceCheckpoint inst;
  inst.m = 2;
  AggState builtin;
  builtin.v1 = 1.5;
  builtin.n = 2;
  AggState p99;
  Agg("P99")->accumulate(&p99, 1.0);
  inst.states = {builtin, p99};
  op.open_instances.push_back(std::move(inst));
  checkpoint.operators.push_back(std::move(op));
  checkpoint.reorder = {.any_seen = true,
                        .max_seen = 40,
                        .max_delay = 8,
                        .next_seq = 6,
                        .late_events = 1,
                        .buffer_peak = 2,
                        .events = {{5, Event{.timestamp = 36,
                                             .key = 1,
                                             .value = 0.5}}}};

  const std::string expected =
      Unhex("46574342"                   // Magic "FWCB".
            "01000000"                   // 1 operator:
            "02000000"                   //   id 2,
            "0300000000000000"           //   next_m 3,
            "1e00000000000000"           //   next_open_start 30,
            "0500000000000000"           //   accumulate_ops 5,
            "01000000"                   //   1 instance:
            "0200000000000000"           //     m 2,
            "02000000"                   //     2 states:
            "000000000000f83f"           //       v1 1.5,
            "0000000000000000"           //       v2 0,
            "0200000000000000"           //       n 2,
            "00000000"                   //       no payload;
            "0000000000000000"           //       v1 0,
            "0000000000000000"           //       v2 0,
            "0100000000000000"           //       n 1,
            "18100000"                   //       4120-byte QuantileSketch:
            "000000000000f03f"           //         min 1.0,
            "000000000000f03f"           //         max 1.0,
            "0000000000000000") +        //         zero 0,
      std::string(256 * 8, '\0') +       //         neg[],
      std::string(128 * 8, '\0') +       //         pos[] up to 1.0's bin,
      Unhex("0100000000000000") +        //         pos[128] 1,
      std::string(127 * 8, '\0') +       //         the rest of pos[].
      Unhex("01"                         // Reorder section:
            "01"                         //   any_seen,
            "2800000000000000"           //   max_seen 40,
            "0800000000000000"           //   max_delay 8,
            "0600000000000000"           //   next_seq 6,
            "0100000000000000"           //   late_events 1,
            "0200000000000000"           //   buffer_peak 2,
            "01000000"                   //   1 buffered event:
            "0500000000000000"           //     seq 5,
            "2400000000000000"           //     timestamp 36,
            "01000000"                   //     key 1,
            "000000000000e03f");         //     value 0.5.
  EXPECT_EQ(checkpoint.Serialize(), expected);
  Result<ExecutorCheckpoint> decoded =
      ExecutorCheckpoint::Deserialize(expected);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Serialize(), expected);
}

TEST(Checkpoint, SketchResumeProducesIdenticalResults) {
  // Mid-stream serialize -> deserialize -> restore with sketch state, vs
  // an uninterrupted run: bitwise-identical results.
  QueryPlan plan = Example7FactorPlan(Agg("P99"));
  std::vector<Event> events = GenerateSyntheticStream(4000, 4, 321);

  CollectingSink reference;
  ExecutePlan(plan, events, 4, &reference, nullptr, nullptr);

  CollectingSink sink;
  PlanExecutor first(plan, {.num_keys = 4}, &sink);
  const size_t split = events.size() / 2;
  for (size_t i = 0; i < split; ++i) first.Push(events[i]);
  Result<ExecutorCheckpoint> snapshot = first.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  Result<ExecutorCheckpoint> reloaded =
      ExecutorCheckpoint::Deserialize(snapshot->Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  PlanExecutor second(plan, {.num_keys = 4}, &sink);
  ASSERT_TRUE(second.Restore(*reloaded).ok());
  for (size_t i = split; i < events.size(); ++i) second.Push(events[i]);
  second.Finish();
  EXPECT_EQ(sink.ToMap(), reference.ToMap());
}

TEST(Checkpoint, SketchPayloadCannotRestoreIntoWrongFunction) {
  // The state_bytes contract: a P99 checkpoint refuses to restore into an
  // operator running a different function's state layout.
  QueryPlan p99_plan = Example7FactorPlan(Agg("P99"));
  std::vector<Event> events = GenerateSyntheticStream(500, 1, 5);
  CountingSink sink;
  PlanExecutor executor(p99_plan, {.num_keys = 1}, &sink);
  for (const Event& e : events) executor.Push(e);
  Result<ExecutorCheckpoint> snapshot = executor.Checkpoint();
  ASSERT_TRUE(snapshot.ok());

  QueryPlan sum_plan = Example7FactorPlan(Agg("SUM"));
  PlanExecutor wrong(sum_plan, {.num_keys = 1}, &sink);
  Status status = wrong.Restore(*snapshot);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("payload"), std::string::npos)
      << status.ToString();

  QueryPlan hll_plan = Example7FactorPlan(Agg("DISTINCT_COUNT"));
  PlanExecutor also_wrong(hll_plan, {.num_keys = 1}, &sink);
  EXPECT_FALSE(also_wrong.Restore(*snapshot).ok());
}

TEST(Checkpoint, ResumeProducesIdenticalResults) {
  // Split a stream at an arbitrary point; run A->checkpoint->fresh
  // executor->restore->B and compare against an uninterrupted run.
  QueryPlan plan = Example7FactorPlan(Agg("SUM"));
  std::vector<Event> events = GenerateSyntheticStream(5000, 2, 13);
  const size_t split = 2347;

  CollectingSink continuous;
  PlanExecutor uninterrupted(plan, {.num_keys = 2}, &continuous);
  uninterrupted.Run(events);

  CollectingSink part_a;
  ExecutorCheckpoint snapshot;
  {
    PlanExecutor first(plan, {.num_keys = 2}, &part_a);
    for (size_t i = 0; i < split; ++i) first.Push(events[i]);
    Result<ExecutorCheckpoint> cp = first.Checkpoint();
    ASSERT_TRUE(cp.ok());
    snapshot = *cp;
    // `first` is destroyed without Finish — the crash being simulated.
  }
  // Round-trip through the wire format, as a real recovery would.
  Result<ExecutorCheckpoint> rehydrated =
      ExecutorCheckpoint::Deserialize(snapshot.Serialize());
  ASSERT_TRUE(rehydrated.ok());

  CollectingSink part_b;
  PlanExecutor second(plan, {.num_keys = 2}, &part_b);
  ASSERT_TRUE(second.Restore(*rehydrated).ok());
  for (size_t i = split; i < events.size(); ++i) second.Push(events[i]);
  second.Finish();

  // Results before the checkpoint came from the first executor; results
  // after from the second. Together they must equal the continuous run.
  auto merged = part_a.ToMap();
  for (const auto& [key, value] : part_b.ToMap()) {
    merged.emplace(key, value);
  }
  EXPECT_EQ(merged, continuous.ToMap());
  EXPECT_EQ(second.TotalAccumulateOps(), uninterrupted.TotalAccumulateOps());
}

TEST(Checkpoint, ResumeAcrossWindowBoundaries) {
  // Checkpoint at several split points, including exact window edges.
  QueryPlan plan = Example7FactorPlan(Agg("MIN"));
  std::vector<Event> events = GenerateSyntheticStream(1200, 1, 14);
  CollectingSink continuous;
  PlanExecutor uninterrupted(plan, {.num_keys = 1}, &continuous);
  uninterrupted.Run(events);

  for (size_t split : {1u, 119u, 120u, 121u, 600u, 1199u}) {
    CollectingSink part_a;
    PlanExecutor first(plan, {.num_keys = 1}, &part_a);
    for (size_t i = 0; i < split; ++i) first.Push(events[i]);
    Result<ExecutorCheckpoint> cp = first.Checkpoint();
    ASSERT_TRUE(cp.ok());
    CollectingSink part_b;
    PlanExecutor second(plan, {.num_keys = 1}, &part_b);
    ASSERT_TRUE(second.Restore(*cp).ok());
    for (size_t i = split; i < events.size(); ++i) second.Push(events[i]);
    second.Finish();
    auto merged = part_a.ToMap();
    for (const auto& [key, value] : part_b.ToMap()) {
      merged.emplace(key, value);
    }
    EXPECT_EQ(merged, continuous.ToMap()) << "split=" << split;
  }
}

TEST(Checkpoint, RestoreValidation) {
  QueryPlan plan = Example7FactorPlan();
  CollectingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  // Wrong operator count.
  ExecutorCheckpoint wrong;
  EXPECT_EQ(executor.Restore(wrong).code(), StatusCode::kInvalidArgument);
  // Key-space mismatch.
  Result<ExecutorCheckpoint> cp = executor.Checkpoint();
  ASSERT_TRUE(cp.ok());
  PlanExecutor other(plan, {.num_keys = 4}, &sink);
  std::vector<Event> events = GenerateSyntheticStream(100, 1, 15);
  PlanExecutor populated(plan, {.num_keys = 1}, &sink);
  for (const Event& e : events) populated.Push(e);
  Result<ExecutorCheckpoint> with_state = populated.Checkpoint();
  ASSERT_TRUE(with_state.ok());
  EXPECT_FALSE(other.Restore(*with_state).ok());
}

// A stream whose early keys never come back: every one of kSparseKeys
// keys occurs before kSparseSplit, and afterwards only keys 0 and 1 do.
// Instances still open at the split hold the early keys' state, and only
// a restored operator that knows those keys are occupied emits them.
constexpr uint32_t kSparseKeys = 130;  // Three bitmap words, one partial.
constexpr size_t kSparseSplit = 2 * kSparseKeys;

QueryPlan HoppingFactorPlan() {
  // A T(10) factor root under W(40, 10), W(60, 20) and T(30).
  WindowSet set =
      WindowSet::Parse("{W(40, 10), W(60, 20), T(30)}").value();
  return QueryPlan::FromMinCostWcg(
      OptimizeWithFactorWindows(set, CoverageSemantics::kPartitionedBy),
      Agg("SUM"));
}

std::vector<Event> EarlyKeysOnlyStream() {
  std::vector<Event> events;
  for (size_t i = 0; i < kSparseSplit; ++i) {
    events.push_back({.timestamp = static_cast<TimeT>(i / 8),
                      .key = static_cast<uint32_t>((i * 7) % kSparseKeys),
                      .value = 0.25 * static_cast<double>(i % 13) + 0.1});
  }
  for (size_t i = kSparseSplit; i < kSparseSplit + 400; ++i) {
    events.push_back({.timestamp = static_cast<TimeT>(i / 8),
                      .key = static_cast<uint32_t>(i % 2),
                      .value = 1.5});
  }
  return events;
}

using ResultMap = std::map<CollectingSink::ResultKey, double>;

ResultMap Combined(const CollectingSink& before, const CollectingSink& after) {
  ResultMap merged = before.ToMap();
  for (const auto& [key, value] : after.ToMap()) {
    EXPECT_TRUE(merged.emplace(key, value).second) << "duplicate result";
  }
  return merged;
}

// Checks that the reference emits early keys from instances open at the
// split — otherwise the tests below would prove nothing.
void ExpectEarlyKeysAfterSplit(const CollectingSink& after) {
  size_t early = 0;
  for (const WindowResult& r : after.results()) early += r.key >= 2;
  EXPECT_GE(early, size_t{kSparseKeys});
}

TEST(Checkpoint, KeysSeenOnlyBeforeTheSplitSurviveRestore) {
  QueryPlan plan = HoppingFactorPlan();
  ASSERT_GE(plan.num_operators(), 4u);
  const std::vector<Event> events = EarlyKeysOnlyStream();
  CollectingSink reference;
  uint64_t reference_ops = 0;
  ExecutePlan(plan, events, kSparseKeys, &reference, nullptr,
              &reference_ops);

  CollectingSink before;
  PlanExecutor first(plan, {.num_keys = kSparseKeys}, &before);
  for (size_t i = 0; i < kSparseSplit; ++i) first.Push(events[i]);
  Result<ExecutorCheckpoint> snapshot = first.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  Result<ExecutorCheckpoint> reloaded =
      ExecutorCheckpoint::Deserialize(snapshot->Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  CollectingSink after;
  PlanExecutor second(plan, {.num_keys = kSparseKeys}, &after);
  ASSERT_TRUE(second.Restore(*reloaded).ok());
  for (size_t i = kSparseSplit; i < events.size(); ++i) second.Push(events[i]);
  second.Finish();
  ExpectEarlyKeysAfterSplit(after);
  EXPECT_EQ(Combined(before, after), reference.ToMap());
  EXPECT_EQ(second.TotalAccumulateOps(), reference_ops);
}

TEST(Checkpoint, KeysSeenOnlyBeforeTheSplitSurviveShardedRestoreAndResize) {
  QueryPlan plan = HoppingFactorPlan();
  const std::vector<Event> events = EarlyKeysOnlyStream();
  CollectingSink reference;
  ExecutePlan(plan, events, kSparseKeys, &reference, nullptr, nullptr);

  ShardedExecutor::Options options;
  options.num_keys = kSparseKeys;
  options.batch_size = 16;
  CollectingSink before;
  Result<ExecutorCheckpoint> snapshot = Status::Internal("unset");
  {
    ShardedExecutor source(plan, options, &before);
    for (size_t i = 0; i < kSparseSplit; ++i) source.Push(events[i]);
    snapshot = source.Checkpoint();
  }
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedExecutor::Options target_options = options;
    target_options.num_shards = shards;
    CollectingSink after;
    ShardedExecutor target(plan, target_options, &after);
    ASSERT_TRUE(target.Restore(*snapshot).ok());
    for (size_t i = kSparseSplit; i < events.size(); ++i) {
      target.Push(events[i]);
    }
    target.Finish();
    ExpectEarlyKeysAfterSplit(after);
    EXPECT_EQ(Combined(before, after), reference.ToMap());
  }

  // Resize splits the same global view across the new shards mid-stream.
  CollectingSink resized;
  ShardedExecutor elastic(plan, options, &resized);
  for (size_t i = 0; i < kSparseSplit; ++i) elastic.Push(events[i]);
  ASSERT_TRUE(elastic.Resize(4).ok());
  ASSERT_EQ(elastic.num_shards(), 4u);
  for (size_t i = kSparseSplit; i < events.size(); ++i) elastic.Push(events[i]);
  elastic.Finish();
  EXPECT_EQ(resized.ToMap(), reference.ToMap());
  EXPECT_EQ(resized.results().size(), reference.results().size());
}

TEST(Checkpoint, RestoreRejectsMisorderedInstancesAndCursors) {
  // Codec-valid snapshots whose open instances are out of instance order,
  // repeat an instance, or whose open cursor disagrees with next_m: the
  // close rule only inspects the oldest instance, so any of them would
  // fold events past an instance's end or emit an instance twice.
  QueryPlan plan = HoppingFactorPlan();
  const std::vector<Event> events = EarlyKeysOnlyStream();
  CollectingSink reference;
  ExecutePlan(plan, events, kSparseKeys, &reference, nullptr, nullptr);
  CollectingSink before;
  PlanExecutor first(plan, {.num_keys = kSparseKeys}, &before);
  for (size_t i = 0; i < kSparseSplit; ++i) first.Push(events[i]);
  Result<ExecutorCheckpoint> valid = first.Checkpoint();
  ASSERT_TRUE(valid.ok());
  size_t victim = valid->operators.size();
  for (size_t i = 0; i < valid->operators.size(); ++i) {
    if (valid->operators[i].open_instances.size() >= 2) victim = i;
  }
  ASSERT_LT(victim, valid->operators.size()) << "no operator with 2 open";

  std::vector<std::pair<std::string, ExecutorCheckpoint>> forged;
  {
    ExecutorCheckpoint swapped = *valid;
    auto& open = swapped.operators[victim].open_instances;
    std::swap(open[0], open[1]);
    forged.emplace_back("swapped", std::move(swapped));
  }
  {
    ExecutorCheckpoint duplicate = *valid;
    auto& open = duplicate.operators[victim].open_instances;
    open[1] = open[0];
    forged.emplace_back("duplicate m", std::move(duplicate));
  }
  {
    ExecutorCheckpoint cursor = *valid;
    cursor.operators[victim].next_open_start += 1;
    forged.emplace_back("next_open_start", std::move(cursor));
  }

  CollectingSink after;
  PlanExecutor second(plan, {.num_keys = kSparseKeys}, &after);
  for (const auto& [name, checkpoint] : forged) {
    // The codec carries the fields as-is; Restore is the semantic gate.
    Result<ExecutorCheckpoint> reloaded =
        ExecutorCheckpoint::Deserialize(checkpoint.Serialize());
    ASSERT_TRUE(reloaded.ok()) << name;
    Status status = second.Restore(*reloaded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << name << ": " << status.ToString();
  }
  ASSERT_TRUE(second.Restore(*valid).ok());
  for (size_t i = kSparseSplit; i < events.size(); ++i) second.Push(events[i]);
  second.Finish();
  EXPECT_EQ(Combined(before, after), reference.ToMap());
}

TEST(Checkpoint, HolisticPlansUnsupported) {
  WindowSet set = WindowSet::Parse("{T(10)}").value();
  QueryPlan plan = QueryPlan::Original(set, Agg("MEDIAN"));
  CollectingSink sink;
  PlanExecutor executor(plan, {.num_keys = 1}, &sink);
  EXPECT_EQ(executor.Checkpoint().status().code(),
            StatusCode::kUnimplemented);
  ExecutorCheckpoint empty;
  EXPECT_EQ(executor.Restore(empty).code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace fw
