// Micro-benchmarks for the execution engine's hot paths (google-benchmark):
// raw pushes through tumbling/hopping operators, sub-aggregate merging,
// multi-key grouping, full small plans, and result delivery through a
// session. Each scalar benchmark except BM_FactorFanout and
// BM_SessionDelivery has a "<name>Columns" twin driving the same workload
// through the columnar batch path (OnEvents / PushColumns, DESIGN.md
// §14); CI's perf smoke compares the pairs and fails if the columnar
// geomean speedup drops below its floor. BM_FactorFanout's twin,
// BM_FactorFanoutFallback, runs its merges without the merge_batch kernel
// instead.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "cost/min_cost.h"
#include "exec/engine.h"
#include "factor/optimizer.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

constexpr size_t kColumnarBatch = 1024;

std::vector<Event> MakeStream(size_t n, uint32_t keys) {
  return GenerateSyntheticStream(n, keys, kSyntheticSeed);
}

std::vector<EventColumns> MakeChunks(const std::vector<Event>& events) {
  return SplitIntoColumns(events, kColumnarBatch);
}

void BM_RawPushTumbling(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(64);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushTumbling);

void BM_RawPushTumblingColumns(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(64);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushTumblingColumns);

void BM_RawPushHopping(benchmark::State& state) {
  const TimeT ratio = state.range(0);  // r/s: open instances per event.
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window(8 * ratio, 8);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushHopping)->Arg(2)->Arg(8)->Arg(32);

void BM_RawPushHoppingColumns(benchmark::State& state) {
  const TimeT ratio = state.range(0);
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window(8 * ratio, 8);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushHoppingColumns)->Arg(2)->Arg(8)->Arg(32);

void BM_SubAggregateChain(benchmark::State& state) {
  // T(16) -> T(64) -> T(256): merge-path throughput.
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config c1;
  c1.window = Window::Tumbling(16);
  c1.agg = Agg("SUM");
  c1.exposed = true;
  WindowAggregateOperator::Config c2 = c1;
  c2.window = Window::Tumbling(64);
  c2.operator_id = 1;
  WindowAggregateOperator::Config c3 = c1;
  c3.window = Window::Tumbling(256);
  c3.operator_id = 2;
  WindowAggregateOperator op1(c1, &sink);
  WindowAggregateOperator op2(c2, &sink);
  WindowAggregateOperator op3(c3, &sink);
  op1.AddChild(&op2);
  op2.AddChild(&op3);
  for (auto _ : state) {
    op1.Reset();
    op2.Reset();
    op3.Reset();
    for (const Event& e : events) op1.OnEvent(e);
    op1.Flush();
    op2.Flush();
    op3.Flush();
    benchmark::DoNotOptimize(op3.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SubAggregateChain);

void BM_SubAggregateChainColumns(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config c1;
  c1.window = Window::Tumbling(16);
  c1.agg = Agg("SUM");
  c1.exposed = true;
  WindowAggregateOperator::Config c2 = c1;
  c2.window = Window::Tumbling(64);
  c2.operator_id = 1;
  WindowAggregateOperator::Config c3 = c1;
  c3.window = Window::Tumbling(256);
  c3.operator_id = 2;
  WindowAggregateOperator op1(c1, &sink);
  WindowAggregateOperator op2(c2, &sink);
  WindowAggregateOperator op3(c3, &sink);
  op1.AddChild(&op2);
  op2.AddChild(&op3);
  for (auto _ : state) {
    op1.Reset();
    op2.Reset();
    op3.Reset();
    for (const EventColumns& c : chunks) op1.OnEvents(c);
    op1.Flush();
    op2.Flush();
    op3.Flush();
    benchmark::DoNotOptimize(op3.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SubAggregateChainColumns);

// A T(2) factor root feeding ten tumbling/hopping windows, the plan shape
// the optimizer emits for dashboard workloads. Each root instance holds
// two events, so it touches two of the keys; the children merge every
// closed root instance. Scalar only: it has no Columns twin.
void RunFactorFanout(benchmark::State& state, AggFn agg) {
  const uint32_t keys = static_cast<uint32_t>(state.range(0));
  std::vector<Event> events = MakeStream(1 << 16, keys);
  CountingSink sink;
  WindowAggregateOperator::Config root_config;
  root_config.window = Window::Tumbling(2);
  root_config.agg = agg;
  root_config.exposed = false;
  root_config.num_keys = keys;
  WindowAggregateOperator root(root_config, nullptr);
  const Window child_windows[] = {
      Window::Tumbling(10), Window::Tumbling(20), Window::Tumbling(30),
      Window(20, 4),        Window(30, 6),        Window(40, 8),
      Window(60, 10),       Window(60, 20),       Window(90, 18),
      Window(120, 24)};
  std::vector<std::unique_ptr<WindowAggregateOperator>> children;
  for (const Window& window : child_windows) {
    WindowAggregateOperator::Config config = root_config;
    config.window = window;
    config.exposed = true;
    config.operator_id = static_cast<int>(children.size()) + 1;
    children.push_back(
        std::make_unique<WindowAggregateOperator>(config, &sink));
    root.AddChild(children.back().get());
  }
  for (auto _ : state) {
    root.Reset();
    for (auto& child : children) child->Reset();
    for (const Event& e : events) root.OnEvent(e);
    root.Flush();
    for (auto& child : children) child->Flush();
    benchmark::DoNotOptimize(children.back()->accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}

void BM_FactorFanout(benchmark::State& state) {
  RunFactorFanout(state, Agg("MIN"));
}
BENCHMARK(BM_FactorFanout)->Arg(16)->Arg(256);

// The same plan over a registered clone of MIN that declares no
// merge_batch, so the children merge through the engine's per-key
// fallback loop: the twin keeps a perf trail for both merge paths.
void BM_FactorFanoutFallback(benchmark::State& state) {
  AggFn min = FindAggregate("MIN_NO_MERGE_BATCH");
  if (min == nullptr) {
    AggregateFunction clone = *Agg("MIN");
    clone.name = "MIN_NO_MERGE_BATCH";
    clone.merge_batch = nullptr;
    min = AggregateRegistry::Global().Register(std::move(clone)).value();
  }
  RunFactorFanout(state, min);
}
BENCHMARK(BM_FactorFanoutFallback)->Arg(16)->Arg(256);

void BM_KeyedAggregation(benchmark::State& state) {
  const uint32_t keys = static_cast<uint32_t>(state.range(0));
  std::vector<Event> events = MakeStream(1 << 15, keys);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(128);
  config.agg = Agg("AVG");
  config.num_keys = keys;
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_KeyedAggregation)->Arg(1)->Arg(16)->Arg(256);

void BM_KeyedAggregationColumns(benchmark::State& state) {
  const uint32_t keys = static_cast<uint32_t>(state.range(0));
  std::vector<Event> events = MakeStream(1 << 15, keys);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(128);
  config.agg = Agg("AVG");
  config.num_keys = keys;
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_KeyedAggregationColumns)->Arg(1)->Arg(16)->Arg(256);

void BM_FullPlanOriginalVsRewritten(benchmark::State& state) {
  const bool rewritten = state.range(0) == 1;
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40), T(50), T(60)}")
                      .value();
  QueryPlan plan =
      rewritten
          ? QueryPlan::FromMinCostWcg(
                OptimizeWithFactorWindows(
                    set, CoverageSemantics::kPartitionedBy),
                Agg("MIN"))
          : QueryPlan::Original(set, Agg("MIN"));
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  for (auto _ : state) {
    PlanExecutor executor(plan, {.num_keys = 1}, &sink);
    executor.Run(events);
    benchmark::DoNotOptimize(executor.TotalAccumulateOps());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(rewritten ? "rewritten+FW" : "original");
}
BENCHMARK(BM_FullPlanOriginalVsRewritten)->Arg(0)->Arg(1);

void BM_FullPlanOriginalVsRewrittenColumns(benchmark::State& state) {
  const bool rewritten = state.range(0) == 1;
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40), T(50), T(60)}")
                      .value();
  QueryPlan plan =
      rewritten
          ? QueryPlan::FromMinCostWcg(
                OptimizeWithFactorWindows(
                    set, CoverageSemantics::kPartitionedBy),
                Agg("MIN"))
          : QueryPlan::Original(set, Agg("MIN"));
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  for (auto _ : state) {
    PlanExecutor executor(plan, {.num_keys = 1}, &sink);
    for (const EventColumns& c : chunks) executor.PushColumns(c);
    executor.Finish();
    benchmark::DoNotOptimize(executor.TotalAccumulateOps());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(rewritten ? "rewritten+FW" : "original");
}
BENCHMARK(BM_FullPlanOriginalVsRewrittenColumns)->Arg(0)->Arg(1);

// Result delivery through an inline session: 64 keys, per-key tumbling
// windows T(8) ⊂ T(32) ⊂ T(128) (no factor window; 2.5 results per event
// per query), each subscribed by Arg() queries with no-op callbacks, so
// the engine's work is fixed and the delivery path — gate, router,
// per-query callback sinks — scales with the subscribers. Items are
// results delivered, summed over the queries.
void BM_SessionDelivery(benchmark::State& state) {
  constexpr uint32_t kKeys = 64;
  const int subscribers = static_cast<int>(state.range(0));
  const std::vector<Event> events = MakeStream(1 << 16, kKeys);
  int64_t delivered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto session = std::make_unique<StreamSession>(
        StreamSession::Options{.num_keys = kKeys});
    std::vector<QueryId> ids;
    for (int q = 0; q < subscribers; ++q) {
      ids.push_back(session
                        ->AddQuery(Query()
                                       .Min("v")
                                       .From("s")
                                       .PerKey("k")
                                       .Tumbling(8)
                                       .Tumbling(32)
                                       .Tumbling(128),
                                   [](const WindowResult&) {})
                        .value());
    }
    state.ResumeTiming();
    for (const Event& e : events) {
      benchmark::DoNotOptimize(session->Push(e).ok());
    }
    benchmark::DoNotOptimize(session->Finish().ok());
    state.PauseTiming();
    for (const QueryId id : ids) {
      delivered += static_cast<int64_t>(
          session->StatsFor(id).value().results_delivered);
    }
    session.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_SessionDelivery)->Arg(1)->Arg(4);

}  // namespace
}  // namespace fw

BENCHMARK_MAIN();
