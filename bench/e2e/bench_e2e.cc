// End-to-end benchmark program: runs one workload for one seed and prints
// one JSON object (the last line of stdout). run.py builds this binary,
// starts one process per workload and turns the objects into tables,
// result files and comparisons; README.md documents the metrics.
//
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--scale=X]
//             [--scratch-dir=DIR] [--trace-dir=DIR] [--inject-fault]
//
// --trace-dir selects the traced run (per-layer metrics, one Chrome
// trace file per workload) instead of the end-to-end measurement.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/clock.h"
#include "durability/framed_io.h"
#include "e2e.h"
#include "telemetry/metrics.h"

#ifndef FW_E2E_BUILD_TYPE
#define FW_E2E_BUILD_TYPE "unknown"
#endif

namespace fw {
namespace e2e {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: bench_e2e --workload=NAME --seed=N [--seconds=S]"
               " [--scale=X] [--scratch-dir=DIR] [--trace-dir=DIR]"
               " [--inject-fault]\n",
               message.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& arg, size_t prefix) {
  const std::string text = arg.substr(prefix);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(value > 0.0)) {
    Usage("bad value in '" + arg + "'");
  }
  return value;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  config.scratch_dir = ".";
  double scale = 1.0;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = static_cast<uint64_t>(ParseNumber(arg, 7));
      seeded = true;
    } else if (arg.rfind("--seconds=", 0) == 0) {
      config.seconds = ParseNumber(arg, 10);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = ParseNumber(arg, 8);
    } else if (arg.rfind("--scratch-dir=", 0) == 0) {
      config.scratch_dir = arg.substr(14);
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      config.trace_dir = arg.substr(12);
    } else if (arg == "--inject-fault") {
      config.inject_fault = true;
    } else {
      Usage("unknown flag '" + arg + "'");
    }
  }
  const WorkloadSpec* base = FindWorkload(workload);
  if (base == nullptr) Usage("unknown workload '" + workload + "'");
  if (!seeded) Usage("--seed is required");
  Status dir = durability::EnsureDir(config.scratch_dir);
  if (!dir.ok()) Usage("scratch dir: " + dir.ToString());

  const WorkloadSpec spec = Scaled(*base, scale);
  MonotonicTimer generate;
  const Inputs inputs = Generate(spec, config.seed);
  const double generate_s = generate.ElapsedSeconds();

  const bool traced = !config.trace_dir.empty();
  RunOutput out = traced ? RunTraced(spec, inputs, config)
                         : RunMeasured(spec, inputs, config);
  out.phases["generate_s"] = generate_s;

  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error.c_str());
  }
  std::string json = "{\"workload\":" + JsonString(spec.name) +
                     ",\"traced\":" + (traced ? "true" : "false") +
                     ",\"correct\":" + (out.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    json += (first ? "" : ",") + JsonString(name) +
            ":{\"value\":" + JsonNumber(metric.value) +
            ",\"unit\":" + JsonString(metric.unit) +
            ",\"samples\":" + std::to_string(metric.samples) + "}";
    first = false;
  }
  json += "},\"context\":{\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\"compiler\":" + JsonString(__VERSION__) +
          ",\"build_type\":" + JsonString(FW_E2E_BUILD_TYPE) +
          ",\"fw_telemetry\":" + (telemetry::kEnabled ? "true" : "false") +
          ",\"seed\":" + std::to_string(config.seed) +
          ",\"seconds\":" + JsonNumber(config.seconds) +
          ",\"scale\":" + JsonNumber(scale) + ",\"phases\":{";
  first = true;
  for (const auto& [name, value] : out.phases) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  json += "}}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace fw

int main(int argc, char** argv) { return fw::e2e::Main(argc, argv); }
