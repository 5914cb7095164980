// Measurement plumbing for the end-to-end benchmark: process clocks and
// resource counters, order statistics, the benchmark's own span recorder,
// and the one-line JSON result.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/trace.h"

namespace perfbench {

// Wall seconds on the steady clock since an arbitrary origin.
double WallSeconds();
// CPU seconds (user + system) of the whole process, every thread included.
double ProcessCpuSeconds();
// Minor page faults of the whole process so far.
int64_t MinorFaults();
// High-water resident set of the process, in bytes.
int64_t PeakRssBytes();
// Threads the process has right now (from /proc/self/status).
int ThreadCount();

double Median(std::vector<double> values);
// The sample with at least ten samples above it: index n - 11 of the sorted
// values. Returns false when fewer than forty samples exist, since such a
// percentile would not be a tail; `*percentile` is its rank in [0, 1].
bool Tail(std::vector<double> values, double* value, double* percentile);

// The benchmark's own spans, kept on a 0-worker engine Trace so they export
// through the same TraceExporter as the engines' timelines. Thread-safe:
// service-mix clients record Submit->wait spans concurrently.
class BenchSpans {
 public:
  BenchSpans() : trace_(/*num_workers=*/0) {}

  // Nanoseconds since this recorder's epoch.
  int64_t Now() const { return trace_.driver()->Now(); }
  // Appends a complete span that started at `start_ns`; `name` must have
  // static storage duration.
  void End(const char* name, int64_t start_ns, int64_t arg = 0);

  const gerenuk::Trace& trace() const { return trace_; }

 private:
  mutable std::mutex mu_;
  mutable gerenuk::Trace trace_;
};

// Scoped span on a BenchSpans recorder; a null recorder records nothing.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(BenchSpans* spans, const char* name)
      : spans_(spans), name_(name), start_ns_(spans != nullptr ? spans->Now() : 0) {}
  ~ScopedBenchSpan() {
    if (spans_ != nullptr) {
      spans_->End(name_, start_ns_);
    }
  }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  BenchSpans* spans_;
  const char* name_;
  int64_t start_ns_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
