/// \file sim_workloads.cpp
/// \brief sim_sweep and sim_faults: `icsched simulate` sweeps from dag text
/// to merged output, and single replications on one thread.
///
/// sim_sweep: mesh 300 and butterfly 12, all six schedulers, 16 clients,
/// fault-free, latency cost model. Chosen because nearly all of its time is
/// in the engine (tracker, scheduler, event heap, per-event bookkeeping) plus
/// a 1.6-1.8 MB parse per call; no service layer is touched.
///
/// sim_faults: mesh 128 and butterfly 9 under IC-OPT, FIFO and RANDOM with
/// every fault mechanism on, crossed with the BSP and memory cost models.
/// Chosen because it is the same engine used differently -- fault RNG draws,
/// re-issues, timeout and churn events, allocation gating and cost charges --
/// so sim.cost_model and sim.fault_model are measured somewhere.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bench.hpp"
#include "core/eligibility.hpp"
#include "inputs.hpp"
#include "io/cli.hpp"
#include "io/dag_io.hpp"
#include "sim/batch_runner.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_heap.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"

namespace icsbench {
namespace {

using namespace icsched;

constexpr std::size_t kClients = 16;
constexpr std::size_t kMinSetupReps = 9;
constexpr std::size_t kMaxSetupReps = 200;
constexpr double kSetupSeconds = 1.5;
/// Untraced runs alternate throughput and latency measurement this often.
constexpr std::size_t kSlices = 4;

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

struct SimDag {
  std::string name;
  ScheduledDag generated;
  std::string text;  ///< dag + schedule, as `simulate` reads them
  Dag dag;           ///< parsed from text during set-up
  Schedule schedule;
};

/// One runCli call shape: dag x scheduler x fault/cost flags.
struct Combo {
  std::size_t dag = 0;
  std::string scheduler;
  std::vector<std::string> flags;  ///< fault and cost flags, CLI spelling
  SimulationConfig cfg;            ///< the same settings, for SimulationEngine
  std::string reference;           ///< output at threads=1
  std::map<std::uint64_t, std::string> trialLines;  ///< seed -> result line
};

struct SimPlan {
  std::vector<SimDag> dags;
  std::vector<Combo> combos;
  std::size_t trials = 32;
  std::uint64_t simSeed = 1;
};

/// The `simulate` flags these workloads use, as a SimulationConfig. Every
/// runWith result is compared with runCli's line for the same seed, so a
/// mapping that drifted from the CLI's fails the run.
void applyFlag(SimulationConfig& cfg, const std::string& flag) {
  const std::size_t eq = flag.find('=');
  const std::string key = flag.substr(0, eq);
  const std::string value = flag.substr(eq + 1);
  if (key == "depart") {
    cfg.faults.clientDepartureRate = std::stod(value);
  } else if (key == "join") {
    cfg.faults.clientRejoinRate = std::stod(value);
  } else if (key == "timeout") {
    cfg.faults.taskTimeout = std::stod(value);
  } else if (key == "straggler") {
    cfg.faults.stragglerProbability = std::stod(value);
  } else if (key == "spec") {
    cfg.faults.speculationFactor = std::stod(value);
  } else if (key == "transient") {
    cfg.faults.transientFailureProbability = std::stod(value);
  } else if (key == "permanent") {
    cfg.faults.permanentFailureProbability = std::stod(value);
  } else if (key == "cost_model") {
    cfg.costModel.kind = parseCostModelKind(value);
  } else if (key == "mem_cap") {
    cfg.costModel.memCapacity = std::stoul(value);
  } else {
    throw std::invalid_argument("sim workload: unmapped flag " + flag);
  }
}

SimPlan makePlan(const Options& opts) {
  const bool faults = opts.workload == "sim_faults";
  Rng rng(opts.seed ^ 0x51A5EEDull);
  SimPlan plan;
  plan.simSeed = 1 + rng.below(1000000);
  plan.trials = opts.tiny ? 4 : 32;
  std::vector<FamilySpec> specs;
  if (faults) {
    specs = opts.tiny ? std::vector<FamilySpec>{{"mesh", 16}, {"butterfly", 4}}
                      : std::vector<FamilySpec>{{"mesh", 128}, {"butterfly", 9}};
  } else {
    specs = opts.tiny ? std::vector<FamilySpec>{{"mesh", 20}, {"butterfly", 5}}
                      : std::vector<FamilySpec>{{"mesh", 300}, {"butterfly", 12}};
  }
  for (const FamilySpec& s : specs) {
    SimDag d;
    d.name = s.family + "-" + std::to_string(s.param);
    d.generated = makeFamily(s);
    d.text = simulateInput(d.generated);
    plan.dags.push_back(std::move(d));
  }
  const std::vector<std::string> schedulers =
      faults ? std::vector<std::string>{"IC-OPT", "FIFO", "RANDOM"} : allSchedulerNames();
  const std::vector<std::vector<std::string>> costVariants =
      faults ? std::vector<std::vector<std::string>>{{"cost_model=bsp"},
                                                     {"cost_model=memory", "mem_cap=16"}}
             : std::vector<std::vector<std::string>>{{}};
  const std::vector<std::string> faultFlags =
      faults ? std::vector<std::string>{"depart=0.002", "join=0.05",      "timeout=6",
                                        "straggler=0.05", "spec=2",       "transient=0.02",
                                        "permanent=0.002"}
             : std::vector<std::string>{};
  for (std::size_t d = 0; d < plan.dags.size(); ++d) {
    for (const std::string& s : schedulers) {
      for (const auto& cost : costVariants) {
        Combo c;
        c.dag = d;
        c.scheduler = s;
        c.flags = faultFlags;
        c.flags.insert(c.flags.end(), cost.begin(), cost.end());
        c.cfg.numClients = kClients;
        for (const std::string& f : c.flags) applyFlag(c.cfg, f);
        plan.combos.push_back(std::move(c));
      }
    }
  }
  return plan;
}

std::vector<std::string> cliArgs(const SimPlan& plan, const Combo& c, std::size_t threads) {
  std::vector<std::string> args = {"simulate",
                                   std::to_string(kClients),
                                   c.scheduler,
                                   std::to_string(plan.simSeed),
                                   "trials=" + std::to_string(plan.trials),
                                   "threads=" + std::to_string(threads)};
  args.insert(args.end(), c.flags.begin(), c.flags.end());
  return args;
}

struct CliOutcome {
  int rc = 0;
  std::string out;
  std::string err;
};

CliOutcome callCli(const std::vector<std::string>& args, const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::ostringstream err;
  CliOutcome o;
  o.rc = runCli(args, in, out, err);
  o.out = out.str();
  o.err = err.str();
  return o;
}

/// The `simulate` result line of one replication, as runCli prints it.
std::string resultLine(const SimulationResult& r) {
  std::ostringstream os;
  os << "makespan=" << r.makespan << " idle=" << r.totalIdleTime << " stalls=" << r.stallEvents
     << " readyPool=" << r.avgReadyPool;
  return os.str();
}

/// Runs \p fn(i) for i in [0, n) on up to nproc threads.
template <class F>
void parallelFor(std::size_t n, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(n, nproc()); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// The serial (threads=1) output of every combo: the byte-identity reference
/// for the threaded calls, and per-seed result lines for single replications.
/// One call at a time: concurrent calls would make the process's peak memory
/// depend on which combos happened to overlap.
void computeReferences(SimPlan& plan, Result& res) {
  for (Combo& c : plan.combos) {
    const CliOutcome o = callCli(cliArgs(plan, c, 1), plan.dags[c.dag].text);
    res.attempt();
    if (o.rc != 0 || !o.err.empty()) {
      res.fail("simulate threads=1 exited " + std::to_string(o.rc) + ": " + o.err);
      continue;
    }
    c.reference = o.out;
    std::istringstream lines(o.out);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("trial seed=", 0) != 0) continue;
      const std::size_t sp = line.find(' ', 11);
      c.trialLines[std::stoull(line.substr(11, sp - 11))] = line.substr(sp + 1);
    }
    if (c.trialLines.size() != plan.trials) res.fail("simulate threads=1: missing trial lines");
  }
}

/// Set-up: parse every dag and schedule text on every core at once, pass
/// after pass: at least kMinSetupReps passes and more, up to kSetupSeconds,
/// for small inputs. On a shared host each core runs fast or slow for
/// seconds at a time as its neighbours come and go, so one pass is the mean
/// over the cores of their parses, and the set-up time is the median pass.
double parseInputs(SimPlan& plan, Result& res) {
  const std::size_t workers = nproc();
  std::vector<std::vector<double>> perWorker(workers);
  const auto begin = Clock::now();
  parallelFor(workers, [&](std::size_t worker) {
    for (std::size_t rep = 0;
         rep < kMaxSetupReps && (rep < kMinSetupReps || secondsSince(begin) < kSetupSeconds);
         ++rep) {
      const auto start = Clock::now();
      for (SimDag& d : plan.dags) {
        std::istringstream in(d.text);
        Dag g = readDag(in);
        Schedule s = readSchedule(in);
        if (worker == 0) {  // the only writer; other workers read only d.text
          d.dag = std::move(g);
          d.schedule = std::move(s);
        }
      }
      perWorker[worker].push_back(secondsSince(start));
    }
  });
  std::size_t passes = kMaxSetupReps;
  for (const auto& v : perWorker) passes = std::min(passes, v.size());
  std::vector<double> passMeans(passes, 0.0);
  for (const auto& v : perWorker) {
    for (std::size_t k = 0; k < passes; ++k) passMeans[k] += v[k] / static_cast<double>(workers);
  }
  for (SimDag& d : plan.dags) {
    res.attempt();
    if (!(d.dag == d.generated.dag) || !(d.schedule == d.generated.schedule)) {
      res.fail("parsed " + d.name + " differs from the generated dag");
    }
  }
  return median(passMeans);
}

struct Throughput {
  std::size_t replications = 0;
  double seconds = 0.0;
  std::vector<std::vector<double>> callSeconds;  ///< per combo

  /// Replications per second of one round of calls, each call timed at its
  /// combo's median: a burst of host noise moves single calls, not this.
  [[nodiscard]] double replicationsPerSecond(std::size_t trials) const {
    double round = 0.0;
    for (const auto& v : callSeconds) round += median(v);
    return static_cast<double>(trials * callSeconds.size()) / round;
  }
};

/// Whole rounds of threads=nproc calls over every combo until \p budget,
/// added to \p tp.
void measureThroughput(const SimPlan& plan, double budget, bool& corruptPending, Result& res,
                       Throughput& tp) {
  tp.callSeconds.resize(plan.combos.size());
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < plan.combos.size(); ++i) {
      const Combo& c = plan.combos[i];
      const std::uint64_t op = tp.replications;
      SpanScope call("sim.run_cli", op);
      const auto t = Clock::now();
      CliOutcome o = callCli(cliArgs(plan, c, nproc()), plan.dags[c.dag].text);
      tp.callSeconds[i].push_back(secondsSince(t));
      SpanScope check("bench.check_output", op, call.id());
      if (corruptPending && !o.out.empty()) {
        o.out[o.out.find('=') + 1] ^= 1;  // one divergent sim line
        corruptPending = false;
      }
      res.attempt();
      if (o.rc != 0 || o.out != c.reference) {
        res.fail("simulate threads=" + std::to_string(nproc()) + " " + c.scheduler + " on " +
                 plan.dags[c.dag].name + " differs from threads=1");
      }
      tp.replications += plan.trials;
    }
  } while (secondsSince(start) < budget);
  tp.seconds += secondsSince(start);
}

/// Single-replication latencies in milliseconds, per combo.
struct Latency {
  std::vector<std::vector<double>> perCombo;

  [[nodiscard]] std::vector<double> pooled() const {
    std::vector<double> all;
    for (const auto& v : perCombo) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  /// The mean over combos of one statistic of each combo's latencies. Each
  /// combo is a tight cluster, so a pooled percentile (or a median over
  /// combos) would sit on the edge between two clusters and jump between
  /// them; the mean moves smoothly with every combo.
  template <class F>
  [[nodiscard]] double acrossCombos(F&& stat) const {
    std::vector<double> v;
    for (const auto& c : perCombo) v.push_back(stat(summarize(c)));
    return mean(v);
  }
};

/// Single replications, each on one thread (SimulationEngine::runWith on the
/// parsed dag), with one such thread per core as in a BatchRunner sweep:
/// every thread takes whole rounds over the combos, starting at its own
/// offset, after one untimed warm-up round that sizes its engine buffers.
/// Samples are added to \p all.
void measureLatency(const SimPlan& plan, double budget, Result& res, Latency& all) {
  const std::size_t workers = nproc();
  const std::size_t n = plan.combos.size();
  std::vector<Latency> perWorker(workers);
  static std::atomic<std::uint64_t> nextOp{0};
  const auto start = Clock::now();
  parallelFor(workers, [&](std::size_t w) {
    std::vector<SimulationEngine> engines(plan.dags.size());
    Latency& lat = perWorker[w];
    lat.perCombo.resize(n);
    for (std::size_t round = 0; round < 1 || secondsSince(start) < budget; ++round) {
      const std::uint64_t seed = plan.simSeed + (round + w) % plan.trials;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k + w * n / workers) % n;
        const Combo& c = plan.combos[i];
        SimulationConfig cfg = c.cfg;
        cfg.seed = seed;
        const SimDag& d = plan.dags[c.dag];
        const std::uint64_t op = nextOp.fetch_add(1);
        SpanScope span("sim.engine.run_with", op);
        const auto t = Clock::now();
        const SimulationResult r = engines[c.dag].runWith(d.dag, d.schedule, c.scheduler, cfg);
        if (round > 0) lat.perCombo[i].push_back(secondsSince(t) * 1e3);
        SpanScope check("bench.check_line", op, span.id());
        res.attempt();
        const auto it = c.trialLines.find(seed);
        if (it == c.trialLines.end() || it->second != resultLine(r)) {
          res.fail("runWith " + c.scheduler + " on " + d.name + " seed " + std::to_string(seed) +
                   " differs from the simulate trial line");
        }
      }
    }
  });
  all.perCombo.resize(n);
  for (const Latency& lat : perWorker) {
    for (std::size_t i = 0; i < n; ++i) {
      all.perCombo[i].insert(all.perCombo[i].end(), lat.perCombo[i].begin(),
                             lat.perCombo[i].end());
    }
  }
}

// ---- per-layer replays (traced runs) ----

#if defined(__x86_64__) || defined(__i386__)
inline std::uint64_t ticks() { return __rdtsc(); }
#else
inline std::uint64_t ticks() {
  return static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
}
#endif

/// Nanoseconds per tick, and the cost of one back-to-back tick pair.
struct TickScale {
  double nsPerTick = 1.0;
  double pairTicks = 0.0;
};

TickScale calibrateTicks() {
  TickScale s;
  const auto t0 = Clock::now();
  const std::uint64_t c0 = ticks();
  while (secondsSince(t0) < 0.02) {
  }
  s.nsPerTick = secondsSince(t0) * 1e9 / static_cast<double>(ticks() - c0);
  std::vector<double> pairs;
  for (int i = 0; i < 1001; ++i) {
    const std::uint64_t a = ticks();
    pairs.push_back(static_cast<double>(ticks() - a));
  }
  s.pairTicks = median(pairs);
  return s;
}

/// One combo's layer costs, per task unless named otherwise.
struct LayerCosts {
  double runNsPerTask = 0, runNsPerEvent = 0, eventsPerTask = 0, usefulRatio = 0;
  double trackerNs = 0, pickNs = 0, onEligibleNs = 0, heapNs = 0, costNs = 0;
  double picksPerTask = 0, onEligiblePerTask = 0;
  [[nodiscard]] double selfNs() const {
    return runNsPerTask - trackerNs - pickNs * picksPerTask -
           onEligibleNs * onEligiblePerTask - heapNs * eventsPerTask - costNs;
  }
};

std::unique_ptr<CostModel> makeCostModel(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::Bsp:
      return std::make_unique<BspCostModel>();
    case CostModelKind::Memory:
      return std::make_unique<MemoryCostModel>();
    default:
      return std::make_unique<LatencyCostModel>();
  }
}

LayerCosts replayLayers(const SimDag& d, const Combo& c, std::uint64_t seed,
                        const TickScale& ts, std::uint64_t op) {
  const Dag& g = d.dag;
  const double n = static_cast<double>(g.numNodes());
  SimulationConfig cfg = c.cfg;
  cfg.seed = seed;
  std::vector<double> run, perEvent, evPerTask, tracker, pick, onElig, heap, cost;
  LayerCosts lc;
  const SpanScope comboSpan("replay.sim.combo", op);
  SimulationEngine engine;  // reused, as BatchRunner workers reuse theirs
  for (int rep = 0; rep < 3; ++rep) {
    // The whole engine, stepped: sim.simulation.run.*.
    {
      const SpanScope s("replay.sim.simulation_run", op, comboSpan.id());
      engine.beginWith(g, d.schedule, c.scheduler, cfg);
      const auto t = Clock::now();
      while (!engine.step(1u << 16)) {
      }
      const double ns = secondsSince(t) * 1e9;
      const double events = static_cast<double>(engine.eventsProcessed());
      const SimulationResult r = engine.takeResult();
      run.push_back(ns / n);
      perEvent.push_back(ns / events);
      evPerTask.push_back(events / n);
      lc.usefulRatio =
          n / (n + static_cast<double>(r.resilience.reissues + r.resilience.speculativeIssues));
    }
    // Scheduler and tracker interleaved as the engine drives them: pick,
    // executeInto, onEligible(packet). Per-call ticks for the scheduler.
    std::vector<NodeId> order;
    order.reserve(g.numNodes());
    double picks = 0, onEligibles = 0, pickTicks = 0, onEligTicks = 0;
    {
      const SpanScope s("replay.sim.scheduler", op, comboSpan.id());
      const auto sched = makeScheduler(c.scheduler, g, d.schedule, seed);
      EligibilityTracker tr(g);
      std::vector<NodeId> packet;
      for (NodeId v : tr.eligibleNodes()) {
        const std::uint64_t t = ticks();
        sched->onEligible(v);
        onEligTicks += static_cast<double>(ticks() - t) - ts.pairTicks;
        ++onEligibles;
      }
      while (sched->hasWork()) {
        const std::uint64_t t0 = ticks();
        const NodeId v = sched->pick();
        const std::uint64_t t1 = ticks();
        tr.executeInto(v, packet);
        const std::uint64_t t2 = ticks();
        for (NodeId child : packet) sched->onEligible(child);
        const std::uint64_t t3 = ticks();
        pickTicks += static_cast<double>(t1 - t0) - ts.pairTicks;
        onEligTicks += static_cast<double>(t3 - t2) - ts.pairTicks;
        onEligibles += static_cast<double>(packet.size());
        ++picks;
        order.push_back(v);
      }
    }
    // Below the timer's resolution the overhead-corrected sums can dip
    // under zero; such a call is reported as free.
    pick.push_back(std::max(0.0, pickTicks * ts.nsPerTick / std::max(1.0, picks)));
    onElig.push_back(std::max(0.0, onEligTicks * ts.nsPerTick / std::max(1.0, onEligibles)));
    lc.picksPerTask = picks / n;
    lc.onEligiblePerTask = onEligibles / n;
    // The tracker alone over the same execution order.
    {
      const SpanScope s("replay.core.eligibility", op, comboSpan.id());
      EligibilityTracker tr(g);
      std::vector<NodeId> packet;
      const auto t = Clock::now();
      for (NodeId v : order) tr.executeInto(v, packet);
      tracker.push_back(secondsSince(t) * 1e9 / n);
    }
    // Event heap push/pop at the engine's pending size (one event per
    // client), for as many events as the engine processed.
    {
      const SpanScope s("replay.sim.event_heap", op, comboSpan.id());
      EventHeap h;
      h.reserve(kClients + 8);
      Rng rng(seed);
      std::uint64_t seq = 0;
      for (std::size_t i = 0; i < kClients; ++i) {
        h.push(SimEvent{rng.uniform(), seq++, 0, i});
      }
      const auto events = static_cast<std::size_t>(evPerTask.back() * n);
      const auto t = Clock::now();
      for (std::size_t i = 0; i < events; ++i) {
        SimEvent ev = h.top();
        h.pop();
        ev.time += 0.5 + static_cast<double>(i & 7) * 0.125;
        ev.seq = seq++;
        h.push(ev);
      }
      heap.push_back(secondsSince(t) * 1e9 /
                     static_cast<double>(std::max<std::size_t>(1, events)));
    }
    // Cost model: allocate and complete charges for every task, in level
    // order for BSP (its barriers require it), else in execution order.
    {
      const SpanScope s("replay.sim.cost_model", op, comboSpan.id());
      std::unique_ptr<CostModel> model = makeCostModel(cfg.costModel.kind);
      CostMetrics metrics;
      model->bind(g, cfg.costModel, kClients, &metrics);
      if (auto* bsp = dynamic_cast<BspCostModel*>(model.get())) {
        std::stable_sort(order.begin(), order.end(),
                         [&](NodeId a, NodeId b) { return bsp->level(a) < bsp->level(b); });
      }
      const bool gated = model->gatesAllocation();
      std::size_t allowed = 0;
      const auto t = Clock::now();
      for (std::size_t i = 0; i < order.size(); ++i) {
        const NodeId v = order[i];
        if (gated) allowed += model->allocatable(v) ? 1 : 0;
        const double now = static_cast<double>(i);
        const double wall = model->chargeAllocate(v, i % kClients, now, 1.0);
        model->chargeComplete(v, i % kClients, now + wall);
      }
      cost.push_back(secondsSince(t) * 1e9 / n);
      if (gated && allowed != order.size()) throw std::logic_error("cost replay broke a gate");
    }
  }
  lc.runNsPerTask = median(run);
  lc.runNsPerEvent = median(perEvent);
  lc.eventsPerTask = median(evPerTask);
  lc.trackerNs = median(tracker);
  lc.pickNs = median(pick);
  lc.onEligibleNs = median(onElig);
  lc.heapNs = median(heap);
  lc.costNs = median(cost);
  return lc;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char ch) { return std::tolower(ch); });
  return s;
}

void reportLayers(const SimPlan& plan, Result& res) {
  const TickScale ts = calibrateTicks();
  res.note("tick_ns", ts.nsPerTick);
  std::vector<double> run, perEvent, evPerTask, self, tracker, pick, onElig, heap, useful;
  std::map<std::string, std::vector<double>> pickBy, onEligBy, costBy;
  std::uint64_t op = 0;
  for (const Combo& c : plan.combos) {
    const LayerCosts lc = replayLayers(plan.dags[c.dag], c, plan.simSeed, ts, ++op);
    run.push_back(lc.runNsPerTask);
    perEvent.push_back(lc.runNsPerEvent);
    evPerTask.push_back(lc.eventsPerTask);
    self.push_back(lc.selfNs());
    tracker.push_back(lc.trackerNs);
    pick.push_back(lc.pickNs);
    onElig.push_back(lc.onEligibleNs);
    heap.push_back(lc.heapNs);
    useful.push_back(lc.usefulRatio);
    pickBy[lower(c.scheduler)].push_back(lc.pickNs);
    onEligBy[lower(c.scheduler)].push_back(lc.onEligibleNs);
    costBy[costModelKindName(c.cfg.costModel.kind)].push_back(lc.costNs);
  }
  res.perLayer("sim.simulation.run.ns_per_task", mean(run));
  res.perLayer("sim.simulation.run.ns_per_event", mean(perEvent));
  res.perLayer("sim.simulation.run.events_per_task", mean(evPerTask));
  res.perLayer("sim.simulation.self.ns_per_task", mean(self));
  res.note("sim.simulation.self.ns_per_task",
           "derived: run minus tracker, scheduler, heap and cost-model replays");
  res.perLayer("core.eligibility.execute_into.ns_per_task", mean(tracker));
  res.perLayer("sim.scheduler.pick.ns", mean(pick));
  res.perLayer("sim.scheduler.on_eligible.ns", mean(onElig));
  for (const auto& [s, v] : pickBy) res.perLayer("sim.scheduler.pick.ns." + s, mean(v));
  for (const auto& [s, v] : onEligBy) res.perLayer("sim.scheduler.on_eligible.ns." + s, mean(v));
  for (const auto& [k, v] : costBy) res.perLayer("sim.cost_model.charge.ns_per_task." + k, mean(v));
  res.perLayer("sim.event_heap.push_pop.ns", mean(heap));
  res.perLayer("sim.fault_model.useful_ratio", mean(useful));
}

/// BatchRunner at nproc threads (run) and nproc forked processes
/// (runSharded) against the serial run of the same sweep; each must also
/// reproduce the serial results exactly.
void reportBatchRunner(const SimPlan& plan, const Options& opts, Result& res) {
  SweepSpec spec;
  for (const SimDag& d : plan.dags) spec.dags.push_back({d.name, &d.dag, &d.schedule});
  std::map<std::string, CostModelConfig> costs;
  for (const Combo& c : plan.combos) {
    if (std::find(spec.schedulers.begin(), spec.schedulers.end(), c.scheduler) ==
        spec.schedulers.end()) {
      spec.schedulers.push_back(c.scheduler);
    }
    costs[costModelKindName(c.cfg.costModel.kind)] = c.cfg.costModel;
  }
  spec.seeds = seedRange(plan.simSeed, std::max<std::size_t>(4, nproc()));
  spec.faultCases = {{"faults", plan.combos.front().cfg.faults}};
  spec.costCases.clear();
  for (const auto& [name, cost] : costs) spec.costCases.push_back({name, cost});
  spec.base.numClients = kClients;

  // Each mode runs twice and keeps the faster pass, so first-touch costs
  // do not land on whichever mode happens to run first.
  const auto timedLines = [&](const char* span, auto&& run, double& seconds) {
    std::string lines;
    seconds = 1e300;
    for (int pass = 0; pass < 2; ++pass) {
      const SpanScope s(span, 0);
      const auto t = Clock::now();
      const std::vector<Replication> reps = run();
      seconds = std::min(seconds, secondsSince(t));
      lines.clear();
      for (const Replication& r : reps) lines += resultLine(r.result) + "\n";
    }
    return lines;
  };
  const std::string shardDir = opts.runDir + "/shards-" + std::to_string(::getpid());
  double serial = 0, pool = 0, shard = 0;
  const std::string serialLines =
      timedLines("replay.sim.batch_runner.serial", [&] { return BatchRunner(1).run(spec); }, serial);
  const std::string poolLines = timedLines(
      "replay.sim.batch_runner.pool", [&] { return BatchRunner(nproc()).run(spec); }, pool);
  const std::string shardLines = timedLines(
      "replay.sim.batch_runner.sharded",
      [&] {
        ShardOptions so;
        so.procs = nproc();
        so.journalDir = shardDir;
        return BatchRunner(1).runSharded(spec, so);
      },
      shard);
  std::filesystem::remove_all(shardDir);
  res.attempt(2);
  if (poolLines != serialLines) res.fail("BatchRunner pool results differ from serial");
  if (shardLines != serialLines) res.fail("BatchRunner sharded results differ from serial");
  const double p = static_cast<double>(nproc());
  res.perLayer("sim.batch_runner.pool_efficiency", serial / (p * pool));
  res.perLayer("sim.batch_runner.shard_efficiency", serial / (p * shard));
  res.note("batch_runner.replications", static_cast<double>(spec.numReplications()));
}

}  // namespace

void runSimWorkload(const Options& opts, Result& res) {
  SimPlan plan = makePlan(opts);
  const double setup = parseInputs(plan, res);
  computeReferences(plan, res);
  res.note("peak_rss_mb.after_references", peakRssMb());
  releaseFreedMemory();
  res.note("sim.calls_per_round", static_cast<double>(plan.combos.size()));
  res.note("sim.trials_per_call", static_cast<double>(plan.trials));

  bool corruptPending = opts.corrupt;
  if (!opts.trace) {
    // Throughput and latency alternate in slices over the whole run, so both
    // see the same mix of host conditions.
    Throughput tp;
    Latency lat;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      measureThroughput(plan, 0.5 * opts.seconds / kSlices, corruptPending, res, tp);
      measureLatency(plan, 0.5 * opts.seconds / kSlices, res, lat);
    }
    const Summary pooled = summarize(lat.pooled());
    res.endToEnd("ops_per_s", tp.replicationsPerSecond(plan.trials));
    res.endToEnd("op_ms.tail", lat.acrossCombos([](const Summary& s) { return s.tail; }));
    res.endToEnd("setup_s", setup);
    res.endToEnd("peak_rss_mb", peakRssMb());
    res.note("op_ms.mean", lat.acrossCombos([](const Summary& s) { return s.mean; }));
    res.note("op_ms.p50", lat.acrossCombos([](const Summary& s) { return s.p50; }));
    res.note("op_ms.definition",
             "mean over (dag, scheduler, model) cells of each cell's mean / p50 / tail percentile");
    res.note("op_ms.tail_percentile",
             lat.acrossCombos([](const Summary& s) { return s.tailPct; }));
    res.note("op_ms.samples", static_cast<double>(pooled.n));
    res.note("op_ms.pooled_p50", pooled.p50);
    res.note("op_ms.pooled_tail", pooled.tail);
    res.note("op_ms.pooled_tail_percentile", pooled.tailPct);
    res.note("ops.replications", static_cast<double>(tp.replications));
    res.note("ops.pooled_per_s", static_cast<double>(tp.replications) / tp.seconds);
    return;
  }

  // Traced run: a quarter of the time for the threaded calls (parse share
  // against a parse on an otherwise idle process, as inside runCli), then the
  // same replication loop untraced and traced (overhead), then the layer
  // replays, which are not time-bounded.
  tracer().enable(true);
  Throughput tp;
  measureThroughput(plan, 0.25 * opts.seconds, corruptPending, res, tp);
  tracer().enable(false);
  std::vector<double> parseSeconds;
  for (const SimDag& d : plan.dags) {
    parseSeconds.push_back(medianSeconds(3, [&] {
      std::istringstream in(d.text);
      (void)readDag(in);
      (void)readSchedule(in);
    }));
  }
  std::vector<double> shares;
  for (std::size_t i = 0; i < plan.combos.size(); ++i) {
    shares.push_back(parseSeconds[plan.combos[i].dag] / median(tp.callSeconds[i]));
  }
  res.perLayer("io.cli.simulate.parse_share", mean(shares));
  Latency plain;
  measureLatency(plan, 0.25 * opts.seconds, res, plain);
  tracer().enable(true);
  Latency traced;
  measureLatency(plan, 0.25 * opts.seconds, res, traced);
  res.perLayer("bench.trace.overhead_pct",
               100.0 * (mean(traced.pooled()) / mean(plain.pooled()) - 1.0));
  reportLayers(plan, res);
  reportBatchRunner(plan, opts, res);
  tracer().enable(false);
}

}  // namespace icsbench
