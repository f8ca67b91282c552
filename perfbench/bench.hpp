#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the icsched benchmark driver: run options, the
/// result record every workload fills, latency summaries, and the span
/// tracer of traced runs.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace icsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time of the run (set-up and correctness references excluded).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test sizes: every workload on small dags, same code paths.
  bool tiny = false;
  /// Self-test: corrupt one output before its correctness check, which must
  /// then fail the run.
  bool corrupt = false;
  /// Where result, span and self-time files go (inside the checkout).
  std::string outDir = ".bench_build/results";
  /// Scratch space for service cache files and shard journals.
  std::string runDir = ".bench_build/run";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. attempt()/fail() may be called from client threads.
class Result {
 public:
  Result();

  void endToEnd(const std::string& name, double value);
  void perLayer(const std::string& name, double value);
  /// Free-form facts printed beside the metrics (sample counts, the chosen
  /// tail percentile, error_ratio, ...).
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  /// Counts one failed operation and keeps the first few reasons.
  void fail(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

  /// Writes the result files and prints the result; the last stdout line is
  /// the one-line JSON summary. Returns the process exit code.
  int emit(const Options& opts) const;

 private:
  std::map<std::string, Metric> endToEnd_;
  std::map<std::string, Metric> perLayer_;
  /// Values are JSON fragments.
  std::map<std::string, std::string> notes_;
  /// Per-layer metrics the workload set; the others stay 0.
  std::set<std::string> measured_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

/// Mean, median and the tail: the highest of p99, p95, p90 and p75 that has
/// at least ten samples beyond it (the median when none has). p99.9 is left
/// out: where it has ten samples beyond it, those are a dozen host stalls,
/// and it moved by a quarter between runs of the same code.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tailPct = 50.0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);
[[nodiscard]] double median(std::vector<double> samples);
/// Mean of the samples between the first and third quartile.
[[nodiscard]] double midMean(std::vector<double> samples);

/// Resident-set high-water mark of this process, in MB.
[[nodiscard]] double peakRssMb();
/// Returns the benchmark's own freed memory (references, earlier set-up
/// passes) to the system, so the peak reflects the workload rather than how
/// the allocator happened to keep that garbage.
void releaseFreedMemory();

/// Spans of a traced run: kept in memory, written out when the run ends.
/// Disabled (the default), begin() returns -1 and records nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };

  void enable(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span; returns its id (-1 when disabled or full). \p name must be
  /// a string literal.
  std::int64_t begin(const char* name, std::uint64_t op, std::int64_t parent = -1);
  void end(std::int64_t id);

  /// One JSON object per span, one per line.
  void writeSpans(const std::string& path) const;
  /// Per span name: count, total and self time (duration minus the part of
  /// it covered by child spans), sorted by self time.
  [[nodiscard]] std::string selfTimeTable() const;

 private:
  static constexpr std::size_t kMaxSpans = 1u << 20;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span on the global tracer.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t op, std::int64_t parent = -1)
      : id_(tracer().begin(name, op, parent)) {}
  ~SpanScope() { tracer().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
};

/// Times \p fn over \p reps calls and returns the median seconds per call.
template <class F>
double medianSeconds(std::size_t reps, F&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    t.push_back(secondsSince(start));
  }
  return median(std::move(t));
}

/// Workload entry points (sim_workloads.cpp, serve_workloads.cpp).
void runSimWorkload(const Options& opts, Result& res);
void runServeWorkload(const Options& opts, Result& res);

}  // namespace icsbench
