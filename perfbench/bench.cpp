#include "bench.hpp"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/simd_dispatch.hpp"
#include "sim/numa_topology.hpp"

namespace icsbench {
namespace {

/// The end-to-end metrics every untraced run reports (BENCHMARK.json). The
/// median and mean latency are notes, not metrics: on a shared host each core
/// runs about 1.4x slower for seconds to minutes at a time while a neighbour
/// is busy, and how much of a run falls in the fast phases moved them by up
/// to a third between runs of the same code. The tail sits in the slow phase
/// on every run.
const std::vector<std::pair<const char*, const char*>>& endToEndMetrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"ops_per_s", "1/s"},
      {"op_ms.tail", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

/// Every per-layer metric of a traced run (BENCHMARK.json). A layer that the
/// workload never calls keeps the value 0 and is listed in the
/// `per_layer_not_exercised` note.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"recovery.crc32.mb_per_s", "MB/s"},
        {"service.wire.encode_request.us", "us"},
        {"service.wire.frame_decode.us", "us"},
        {"service.wire.encode_response.us", "us"},
        {"service.request_handler.text_digest.us", "us"},
        {"service.schedule_cache.lru_get.ns", "ns"},
        {"io.dag_io.read_dag.mb_per_s", "MB/s"},
        {"service.schedule_cache.structural_digest.us", "us"},
        {"service.request_handler.cache_key.us", "us"},
        {"service.request_handler.execute.ms", "ms"},
        {"service.persistent_cache.append.us", "us"},
        {"service.persistent_cache.salvage.ms", "ms"},
        {"service.stats.cache_hit_ratio", "ratio"},
        {"service.stats.memo_hit_ratio", "ratio"},
        {"service.stats.shed_ratio", "ratio"},
        {"service.io_thread.wait_ms", "ms"},
        {"sim.simulation.run.ns_per_task", "ns"},
        {"sim.simulation.run.ns_per_event", "ns"},
        {"sim.simulation.run.events_per_task", "count"},
        {"sim.simulation.self.ns_per_task", "ns"},
        {"core.eligibility.execute_into.ns_per_task", "ns"},
        {"sim.scheduler.pick.ns", "ns"},
        {"sim.scheduler.on_eligible.ns", "ns"},
    };
    for (const char* s : {"ic-opt", "fifo", "lifo", "random", "max-out", "crit-path"}) {
      v.emplace_back(std::string("sim.scheduler.pick.ns.") + s, "ns");
      v.emplace_back(std::string("sim.scheduler.on_eligible.ns.") + s, "ns");
    }
    for (const char* k : {"latency", "bsp", "memory"}) {
      v.emplace_back(std::string("sim.cost_model.charge.ns_per_task.") + k, "ns");
    }
    v.insert(v.end(), {
                          {"sim.event_heap.push_pop.ns", "ns"},
                          {"sim.fault_model.useful_ratio", "ratio"},
                          {"sim.batch_runner.pool_efficiency", "ratio"},
                          {"sim.batch_runner.shard_efficiency", "ratio"},
                          {"io.cli.simulate.parse_share", "ratio"},
                          {"bench.trace.overhead_pct", "%"},
                      });
    return v;
  }();
  return m;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " + jsonNumber(metric.value) +
           ", \"unit\": " + jsonString(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string provenanceJson() {
  const icsched::NumaTopology topo = icsched::systemTopology();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd_tier\": " << jsonString(icsched::simdTierName(icsched::activeSimdTier()))
     << ", \"avx2\": " << (icsched::cpuSupportsAvx2() ? "true" : "false")
     << ", \"avx512\": " << (icsched::cpuSupportsAvx512() ? "true" : "false")
     << ", \"numa_nodes\": " << topo.numNodes()
     << ", \"build_type\": " << jsonString(ICSBENCH_BUILD_TYPE)
     << ", \"compiler\": " << jsonString(ICSBENCH_COMPILER)
     << ", \"cxx_flags\": " << jsonString(ICSBENCH_CXX_FLAGS) << "}";
  return os.str();
}

std::uint64_t monoNs() {
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count());
}

}  // namespace

Result::Result() {
  for (const auto& [name, unit] : perLayerMetrics()) perLayer_[name] = Metric{0.0, unit};
}

void Result::endToEnd(const std::string& name, double value) {
  for (const auto& [n, unit] : endToEndMetrics()) {
    if (name == n) {
      endToEnd_[name] = Metric{value, unit};
      return;
    }
  }
  throw std::logic_error("unknown end-to-end metric " + name);
}

void Result::perLayer(const std::string& name, double value) {
  auto it = perLayer_.find(name);
  if (it == perLayer_.end()) throw std::logic_error("unknown per-layer metric " + name);
  it->second.value = value;
  measured_.insert(name);
}

void Result::note(const std::string& key, const std::string& value) {
  std::lock_guard lock(mutex_);
  notes_[key] = jsonString(value);
}

void Result::note(const std::string& key, double value) {
  std::lock_guard lock(mutex_);
  notes_[key] = jsonNumber(value);
}

void Result::fail(const std::string& why) {
  failed_.fetch_add(1);
  std::lock_guard lock(mutex_);
  if (failures_.size() < 20) failures_.push_back(why);
}

int Result::emit(const Options& opts) const {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notExercised;
  if (opts.trace) {
    metrics = perLayer_;
    for (const auto& [name, m] : perLayer_) {
      if (measured_.count(name) == 0) notExercised.push_back(name);
    }
  } else {
    metrics = endToEnd_;
    for (const auto& [name, unit] : endToEndMetrics()) {
      if (metrics.count(name) == 0) {
        std::cerr << "icsbench: workload did not measure " << name << "\n";
        return 1;
      }
    }
  }

  std::map<std::string, std::string> notes = notes_;
  const double attempted = static_cast<double>(attempted_.load());
  notes["error_ratio"] = jsonNumber(attempted > 0 ? static_cast<double>(failed_) / attempted : 1.0);
  if (!notExercised.empty()) {
    std::string list = "[";
    for (const std::string& n : notExercised) list += (list.size() > 1 ? ", " : "") + jsonString(n);
    notes["per_layer_not_exercised"] = list + "]";
  }

  const bool correct = failed_.load() == 0 && attempted_.load() > 0;
  std::ostringstream summary;
  summary << "{\"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << attempted_.load() << ", \"failed\": " << failed_.load()
          << ", \"metrics\": " << metricsJson(metrics) << "}";

  std::string notesJson = "{";
  for (const auto& [k, v] : notes) {
    notesJson += (notesJson.size() > 1 ? ", " : "") + jsonString(k) + ": " + v;
  }
  notesJson += "}";
  std::string failuresJson = "[";
  for (const std::string& f : failures_) {
    failuresJson += (failuresJson.size() > 1 ? ", " : "") + jsonString(f);
  }
  failuresJson += "]";

  const std::string stem = opts.outDir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + (opts.trace ? "-trace" : "");
  std::filesystem::create_directories(opts.outDir);
  {
    std::ofstream f(stem + ".json");
    f << "{\"workload\": " << jsonString(opts.workload) << ", \"seed\": " << opts.seed
      << ", \"seconds\": " << jsonNumber(opts.seconds)
      << ", \"trace\": " << (opts.trace ? "true" : "false")
      << ",\n \"provenance\": " << provenanceJson() << ",\n \"notes\": " << notesJson
      << ",\n \"failures\": " << failuresJson << ",\n \"result\": " << summary.str() << "}\n";
  }
  if (opts.trace) {
    tracer().writeSpans(stem + ".spans.jsonl");
    std::ofstream(stem + ".selftime.txt") << tracer().selfTimeTable();
  }

  for (const std::string& f : failures_) std::cerr << "icsbench: FAILED " << f << "\n";
  std::cout << "provenance " << provenanceJson() << "\n";
  std::cout << "notes " << notesJson << "\n";
  if (opts.trace) std::cout << tracer().selfTimeTable();
  for (const auto& [name, m] : metrics) {
    std::printf("  %-46s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << "results " << stem << ".json\n";
  std::cout << summary.str() << std::endl;
  return correct ? 0 : 3;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  const auto rank = [&](double pct) {
    const auto r = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(s.n)));
    return std::clamp<std::size_t>(r, 1, s.n) - 1;
  };
  s.p50 = v[rank(50.0)];
  s.tail = s.p50;
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    const std::size_t r = rank(pct);
    if (s.n - (r + 1) >= 10) {
      s.tail = v[r];
      s.tailPct = pct;
      break;
    }
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double midMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void releaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::int64_t Tracer::begin(const char* name, std::uint64_t op, std::int64_t parent) {
  if (!enabled()) return -1;
  const std::uint64_t t = monoNs();
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(Span{name, t, 0, parent, op});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::uint64_t t = monoNs();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endNs = t;
}

void Tracer::writeSpans(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.startNs
      << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent << ", \"op\": " << s.op
      << "}\n";
  }
}

std::string Tracer::selfTimeTable() const {
  std::lock_guard lock(mutex_);
  std::vector<double> childNs(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.endNs >= s.startNs) {
      childNs[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.endNs - s.startNs);
    }
  }
  struct Row {
    std::size_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
  };
  std::map<std::string, Row> rows;
  double allSelf = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.endNs < s.startNs) continue;
    const double total = static_cast<double>(s.endNs - s.startNs);
    const double self = std::max(0.0, total - childNs[i]);
    Row& r = rows[s.name];
    ++r.count;
    r.totalNs += total;
    r.selfNs += self;
    allSelf += self;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.selfNs > b.second.selfNs; });
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "self-time %-34s %9s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
  os << line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "self-time %-34s %9zu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                  r.count, r.totalNs / 1e6, r.selfNs / 1e6,
                  allSelf > 0 ? 100.0 * r.selfNs / allSelf : 0.0);
    os << line;
  }
  return os.str();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace icsbench
