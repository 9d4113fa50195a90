// Measurement plumbing: fingerprints, quantiles, the latency histogram,
// peak-RSS probes and the span recorder.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/clock.h"
#include "durability/framed_io.h"
#include "e2e.h"

namespace fw {
namespace e2e {

uint64_t Fingerprint::Hash(uint64_t tag, const WindowResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(r.value));
  std::memcpy(&bits, &r.value, sizeof(bits));
  mix(tag);
  mix(static_cast<uint64_t>(r.operator_id));
  mix(static_cast<uint64_t>(r.start));
  mix(static_cast<uint64_t>(r.end));
  mix(r.key);
  mix(bits);
  return h;
}

std::vector<Event> SortedPrefix(const std::vector<Event>& events, size_t n) {
  std::vector<Event> prefix(events.begin(),
                            events.begin() + static_cast<std::ptrdiff_t>(n));
  std::stable_sort(prefix.begin(), prefix.end(),
                   [](const Event& a, const Event& b) {
                     return a.timestamp < b.timestamp;
                   });
  return prefix;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Bucket b covers [kBase^b, kBase^(b+1)) nanoseconds; 2400 buckets reach
// past 1e10 ns, far beyond any latency a bounded run can produce.
namespace {
constexpr double kBase = 1.01;
constexpr size_t kBuckets = 2400;

double BucketLow(size_t b) { return std::pow(kBase, static_cast<double>(b)); }
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Record(uint64_t ns) {
  const double v = static_cast<double>(std::max<uint64_t>(ns, 1));
  size_t b = static_cast<size_t>(std::log(v) / std::log(kBase));
  b = std::min(b, kBuckets - 1);
  ++buckets_[b];
  ++count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double n = static_cast<double>(buckets_[b]);
    if (n > 0.0 && seen + n > rank) {
      const double frac = (rank - seen + 0.5) / n;
      return BucketLow(b) + (BucketLow(b + 1) - BucketLow(b)) * frac;
    }
    seen += n;
  }
  return BucketLow(kBuckets);
}

namespace {

/// A "Vm...:   1234 kB" field of /proc/self/status, in KiB (0 if absent).
double StatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

double rss_baseline_kb = 0.0;

}  // namespace

void RemoveDir(const std::string& dir) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)durability::RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

void ResetPeakRss() {
  // Writing 5 resets VmHWM to the current resident set (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  rss_baseline_kb = StatusKb("VmRSS:");
}

double PeakRssAboveBaselineMb() {
  return (StatusKb("VmHWM:") - rss_baseline_kb) / 1024.0;
}

void Tracer::Begin(const std::string& name, const std::string& layer) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, layer, MonotonicNanos(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size() - 1));
}

void Tracer::End() {
  spans_[static_cast<size_t>(open_.back())].end_ns = MonotonicNanos();
  open_.pop_back();
}

double Tracer::LayerSeconds(const std::string& layer,
                            const std::string& name) const {
  uint64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.layer == layer && (name.empty() || span.name == name)) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%llu,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", span.name.c_str(), span.layer.c_str(),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 static_cast<unsigned long long>(run_id_), i, span.parent);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

void RunOutput::Count(const Status& status, const std::string& what) {
  ++attempted;
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

void RunOutput::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
}

void RunOutput::Fail(const std::string& what) {
  ++failed;
  correct = false;
  errors.push_back(what);
}

}  // namespace e2e
}  // namespace fw
