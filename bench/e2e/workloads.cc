// The four workloads and their seeded inputs. Each workload stresses a
// different layer; README.md gives the reasoning and the layer map.

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "e2e.h"
#include "harness/experiments.h"
#include "workload/datagen.h"
#include "workload/generator.h"

namespace fw {
namespace e2e {
namespace {

constexpr size_t kPoolSize = 32;
constexpr size_t kSteps = 4096;
/// The dashboards are drawn from this seed (the paper's panel seed), not
/// from --seed: seed-drawn window sets move the per-event engine work by
/// +-20% between seeds, which would swamp every bound.
constexpr uint64_t kQuerySeed = 42;

StreamQuery MakeQuery(const char* agg, WindowSet windows) {
  StreamQuery query;
  query.source = "s";
  query.agg = Agg(agg);
  query.value_column = "v";
  query.per_key = true;
  query.key_column = "k";
  query.windows = std::move(windows);
  return query;
}

/// Redraws every key from Zipf(exponent) over [0, num_keys): rank 0 is
/// the hottest key.
void ZipfRemapKeys(std::vector<Event>* events, uint32_t num_keys,
                   double exponent, Rng* rng) {
  std::vector<double> cdf(num_keys);
  double total = 0.0;
  for (uint32_t k = 0; k < num_keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf[k] = total;
  }
  for (Event& event : *events) {
    const double u = rng->UniformReal(0.0, total);
    event.key = static_cast<uint32_t>(
        std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
  }
}

/// Dashboard window sets of one shape, `count` of them.
std::vector<StreamQuery> DrawQueries(const WorkloadSpec& spec, size_t count,
                                     Rng* rng) {
  std::vector<StreamQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    if (spec.name == "dash_fw") {
      queries.push_back(
          MakeQuery("MIN", RandomGenWindowSet(5, /*tumbling=*/false, rng)));
    } else if (spec.name == "sharded_disorder") {
      queries.push_back(
          MakeQuery("MAX", RandomGenWindowSet(3, /*tumbling=*/true, rng)));
    } else if (spec.name == "query_churn") {
      const int size = static_cast<int>(rng->Uniform(1, 3));
      queries.push_back(
          MakeQuery("MIN", RandomGenWindowSet(size, /*tumbling=*/true, rng)));
    } else {  // durable_crashloop: large tumbling dashboards.
      const TimeT range = 1024 * static_cast<TimeT>(rng->Uniform(4, 64));
      WindowSet windows;
      (void)windows.Add(Window::Tumbling(range));
      queries.push_back(MakeQuery("MAX", std::move(windows)));
    }
  }
  return queries;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec dash;
    dash.name = "dash_fw";
    dash.num_keys = 16;
    dash.stream_events = 2'500'000;
    dash.round_events = 1 << 18;
    dash.check_events = 1 << 19;
    dash.paced_rate = 600'000;
    all.push_back(dash);

    WorkloadSpec sharded;
    sharded.name = "sharded_disorder";
    sharded.num_keys = 256;
    sharded.num_shards = 2;
    sharded.max_delay = 1024;
    sharded.columnar = false;
    sharded.stream_events = 2'500'000;
    sharded.round_events = 1 << 18;
    sharded.check_events = 1 << 19;
    sharded.paced_rate = 400'000;
    all.push_back(sharded);

    WorkloadSpec churn;
    churn.name = "query_churn";
    churn.num_keys = 64;
    churn.churn = true;
    churn.stream_events = 2'500'000;
    churn.round_events = 1 << 18;
    churn.check_events = 1 << 19;
    churn.paced_rate = 400'000;
    all.push_back(churn);

    WorkloadSpec durable;
    durable.name = "durable_crashloop";
    durable.num_keys = 4096;
    durable.durable = true;
    durable.stream_events = 2'500'000;
    durable.round_events = 1 << 18;
    durable.check_events = 1 << 19;
    durable.paced_rate = 800'000;
    all.push_back(durable);
    return all;
  }();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, double scale) {
  WorkloadSpec out = spec;
  // Whole kChurnInterval groups, so that chunked, grouped and per-event
  // feeds of one phase all end on the same event.
  auto shrink = [scale](size_t n) {
    const size_t scaled = std::max<size_t>(
        2 * kDrainInterval,
        static_cast<size_t>(static_cast<double>(n) * scale));
    return scaled / kChurnInterval * kChurnInterval;
  };
  out.stream_events = shrink(spec.stream_events);
  out.round_events = std::min(out.stream_events, shrink(spec.round_events));
  out.check_events = std::min(out.stream_events, shrink(spec.check_events));
  return out;
}

StreamSession::Options SessionOptions(const WorkloadSpec& spec) {
  StreamSession::Options options;
  options.num_keys = spec.num_keys;
  options.num_shards = spec.num_shards;
  options.max_delay = spec.max_delay;
  return options;
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  // Independent sub-streams of the seed for each input property, so that
  // e.g. the crash points do not shift when the stream length changes.
  Rng query_rng(kQuerySeed);
  Rng step_rng(seed * 1000003ull + 2);
  Rng crash_rng(seed * 1000003ull + 3);
  Rng key_rng(seed * 1000003ull + 4);

  const size_t n = spec.stream_events;
  if (spec.name == "sharded_disorder") {
    in.events = GenerateDebsLikeStream(n, spec.num_keys, seed);
    ZipfRemapKeys(&in.events, spec.num_keys, 0.8, &key_rng);
    in.events = ApplyBoundedDisorder(std::move(in.events), 256, seed + 1);
  } else {
    in.events = GenerateSyntheticStream(n, spec.num_keys, seed);
  }
  if (spec.columnar) in.chunks = SplitIntoColumns(in.events, kBatch);
  in.max_ts.resize(n);
  TimeT max_ts = in.events.empty() ? 0 : in.events[0].timestamp;
  for (size_t i = 0; i < n; ++i) {
    max_ts = std::max(max_ts, in.events[i].timestamp);
    in.max_ts[i] = max_ts;
  }

  if (spec.name == "dash_fw") {
    // The paper's own case: a RandomGen panel of hopping 5-window sets.
    PanelConfig panel;
    panel.sequential = false;
    panel.tumbling = false;
    panel.set_size = 5;
    panel.num_sets = 8;
    panel.seed = kQuerySeed;
    for (WindowSet& windows : GeneratePanelWindowSets(panel)) {
      in.queries.push_back(MakeQuery("MIN", std::move(windows)));
    }
  } else if (spec.name == "sharded_disorder") {
    in.queries = DrawQueries(spec, 2, &query_rng);
  } else if (spec.name == "durable_crashloop") {
    for (Window window : {Window::Tumbling(8192), Window::Tumbling(32768),
                          Window(65536, 8192)}) {
      WindowSet windows;
      (void)windows.Add(window);
      in.queries.push_back(MakeQuery("MAX", std::move(windows)));
    }
  }
  std::vector<StreamQuery> pool = DrawQueries(spec, kPoolSize, &query_rng);
  if (spec.name == "query_churn") {
    // Twelve live dashboards drawn from the same pool churn replaces from.
    in.queries.assign(pool.begin(), pool.begin() + 12);
  }
  for (const StreamQuery& query : in.queries) in.sql.push_back(query.ToSql());
  for (const StreamQuery& query : pool) in.pool_sql.push_back(query.ToSql());

  for (size_t i = 0; i < kSteps; ++i) {
    ChurnStep step;
    step.victim = static_cast<size_t>(step_rng.Uniform(0, 1u << 20));
    step.pool_index = static_cast<size_t>(step_rng.Uniform(0, kPoolSize - 1));
    in.steps.push_back(step);
  }

  // Kill points sit a seeded distance past each post-recovery snapshot
  // cadence point, so every recovery replays a comparable changelog
  // suffix (8 Ki events +- 1 Ki) on top of a snapshot load.
  const size_t align = spec.columnar ? kBatch : 1;
  for (size_t fed = 0;;) {
    size_t gap = static_cast<size_t>(kSnapshotInterval) + 8192 - 1024 +
                 static_cast<size_t>(crash_rng.Uniform(0, 2048));
    gap = gap / align * align;
    if (fed + gap > n) break;
    in.crash_gaps.push_back(gap);
    fed += gap;
  }
  return in;
}

}  // namespace e2e
}  // namespace fw
