/// \file serve_workloads.cpp
/// \brief serve_hit and serve_churn: closed-loop clients against an
/// in-process icsched_serve `Service` over localhost TCP.
///
/// serve_hit: 2 connections (one thread each) resend byte-identical
/// `schedule greedy` requests for 8 dags of 60-650 KB, all cached during
/// set-up. Chosen because it is the daemon's hit path -- CRC, text digest,
/// memo, LRU, encode, socket -- all on the single I/O thread; nothing is
/// parsed, synthesized or simulated. Two clients plus the I/O thread leave a
/// core free, so on a shared host the tail measures the daemon rather than
/// the kernel's scheduler.
///
/// serve_churn: 2 connections and a persistent cache file; about 60%
/// identical-byte repeats (memo hit), 25% arc-shuffled texts of cached dags
/// (memo miss: parse and structural digest on the I/O thread, then a cache
/// hit) and 15% freshly renumbered dags (cache miss: greedy synthesis on a
/// worker, LRU insert, ICSCACHE append). More distinct dags arrive than the
/// cache holds, so it evicts and compacts. Chosen because it writes the cache
/// beside reading it and reaches the parser, synthesis, admission and
/// persistence layers that serve_hit bypasses.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "io/cli.hpp"
#include "io/dag_io.hpp"
#include "recovery/checkpoint_io.hpp"
#include "service/client.hpp"
#include "service/persistent_cache.hpp"
#include "service/request_handler.hpp"
#include "service/schedule_cache.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace icsbench {
namespace {

using namespace icsched;
using namespace icsched::service;

constexpr int kReadTimeoutMs = 60000;

enum Kind : std::size_t { kRepeat = 0, kShuffle = 1, kFresh = 2, kKinds = 3 };

struct Req {
  RequestPayload payload;
  ResponsePayload expected;  ///< runCli's bytes for the same argv + stdin
  Kind kind = kRepeat;
};

struct ServePlan {
  bool churn = false;
  std::vector<Req> bases;     ///< cached during set-up, resent byte-identically
  std::vector<Req> shuffles;  ///< arc-shuffled texts of the bases
  std::vector<Req> fresh;     ///< renumbered copies of the bases
  std::size_t clients = 3;
  std::size_t setupReps = 3;
  ServiceConfig cfg;
};

Req scheduleRequest(std::string dagText, Kind kind) {
  Req r;
  r.payload.args = {"schedule", "greedy"};
  r.payload.stdinText = std::move(dagText);
  r.kind = kind;
  return r;
}

ServePlan makePlan(const Options& opts) {
  ServePlan plan;
  plan.churn = opts.workload == "serve_churn";
  plan.clients = 2;
  plan.setupReps = opts.tiny ? 1 : 3;
  std::vector<FamilySpec> specs;
  if (plan.churn) {
    specs = opts.tiny ? std::vector<FamilySpec>{{"mesh", 6}, {"mesh", 8}, {"butterfly", 3},
                                                {"prefix", 8}}
                      : std::vector<FamilySpec>{{"mesh", 30},      {"mesh", 50},
                                                {"mesh", 75},      {"mesh", 100},
                                                {"butterfly", 7},  {"butterfly", 8},
                                                {"prefix", 256},   {"diamond", 9}};
  } else {
    specs = opts.tiny ? std::vector<FamilySpec>{{"mesh", 10}, {"mesh", 12}, {"butterfly", 4},
                                                {"prefix", 16}}
                      : std::vector<FamilySpec>{{"mesh", 192},     {"mesh", 150},
                                                {"mesh", 110},     {"mesh", 64},
                                                {"butterfly", 10}, {"butterfly", 9},
                                                {"butterfly", 8},  {"prefix", 512}};
  }
  Rng rng(opts.seed ^ 0x5E4F3ull);
  const std::size_t shufflesPerBase = opts.tiny ? 2 : 8;
  const std::size_t freshPerBase = opts.tiny ? 2 : 6;
  for (const FamilySpec& spec : specs) {
    const ScheduledDag family = makeFamily(spec);
    const ScheduledDag base = renumbered(family, rng);
    plan.bases.push_back(scheduleRequest(dagToString(base.dag), kRepeat));
    if (!plan.churn) continue;
    for (std::size_t i = 0; i < shufflesPerBase; ++i) {
      plan.shuffles.push_back(scheduleRequest(shuffledArcText(base.dag, rng), kShuffle));
    }
    for (std::size_t i = 0; i < freshPerBase; ++i) {
      plan.fresh.push_back(scheduleRequest(dagToString(renumbered(family, rng).dag), kFresh));
    }
  }
  // Interleave so every window of the pools spans every base.
  for (auto* pool : {&plan.shuffles, &plan.fresh}) {
    for (std::size_t i = pool->size(); i > 1; --i) std::swap((*pool)[i - 1], (*pool)[rng.below(i)]);
  }
  // serve_hit's workers only synthesize during set-up, one request at a
  // time; with a single worker, which thread allocated what -- and so the
  // process's peak memory -- is the same on every run.
  plan.cfg.workerThreads = plan.churn ? 2 : 1;
  if (plan.churn) {
    plan.cfg.scheduleCacheCapacity = opts.tiny ? 2 : 16;
    plan.cfg.cacheFilePath = opts.runDir + "/churn-" + std::to_string(::getpid()) + ".icscache";
  }
  return plan;
}

/// runCli on every distinct request, on all cores: the daemon must answer
/// each one with exactly these bytes.
void computeReferences(ServePlan& plan, Result& res) {
  std::vector<Req*> all;
  for (auto* pool : {&plan.bases, &plan.shuffles, &plan.fresh}) {
    for (Req& r : *pool) all.push_back(&r);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < all.size();) {
        Req& r = *all[i];
        std::istringstream in(r.payload.stdinText);
        std::ostringstream out;
        std::ostringstream err;
        r.expected.exitCode = runCli(r.payload.args, in, out, err);
        r.expected.out = out.str();
        r.expected.err = err.str();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const Req* r : all) {
    res.attempt();
    if (r->expected.exitCode != 0) res.fail("runCli schedule greedy failed: " + r->expected.err);
  }
}

struct Reply {
  bool response = false;
  ResponsePayload resp;
  ErrorPayload error;
};

/// One client round trip through the wire layer's public functions (what
/// ServiceClient::call does), with a span per client-side stage.
Reply roundTrip(ServiceClient& c, const RequestPayload& req, std::uint64_t op,
                std::int64_t parent) {
  Reply r;
  std::string frame;
  {
    const SpanScope s("client.encode_request", op, parent);
    frame = encodeRequest(req);
  }
  {
    const SpanScope s("client.send", op, parent);
    c.sendRaw(frame);
  }
  Frame f;
  {
    const SpanScope s("client.await_response", op, parent);
    do {
      f = c.readFrame(kReadTimeoutMs);
    } while (f.kind == FrameKind::Progress);
  }
  const SpanScope s("client.decode_response", op, parent);
  if (f.kind == FrameKind::Response) {
    r.response = true;
    r.resp = decodeResponsePayload(f.payload);
  } else if (f.kind == FrameKind::Error) {
    r.error = decodeErrorPayload(f.payload);
  } else {
    r.error.message = "unexpected frame kind " + std::to_string(static_cast<int>(f.kind));
  }
  return r;
}

/// Counts the reply as one operation and checks it against runCli's bytes.
void checkReply(const Req& req, Reply& reply, bool requireHit, std::atomic<bool>& corruptPending,
                Result& res) {
  res.attempt();
  if (!reply.response) {
    res.fail(std::string("Error frame ") + wireErrorCodeName(reply.error.code) + ": " +
             reply.error.message);
    return;
  }
  ResponsePayload& resp = reply.resp;
  if (corruptPending.exchange(false) && !resp.out.empty()) {
    resp.out[resp.out.size() / 2] ^= 1;  // one flipped response byte
  }
  if (resp.exitCode != req.expected.exitCode || resp.out != req.expected.out ||
      resp.err != req.expected.err) {
    res.fail("daemon response differs from runCli (" + std::to_string(req.payload.stdinText.size()) +
             "-byte dag, kind " + std::to_string(req.kind) + ")");
  } else if (requireHit && (resp.flags & kRespFlagScheduleCacheHit) == 0) {
    res.fail("serve_hit response after warm-up without the cache-hit flag");
  }
}

/// Set-up: Service start plus warming every base dag into the cache, from a
/// cold start (no cache file); the median of plan.setupReps. The last
/// service stays up for the measurement.
double setUp(const ServePlan& plan, Result& res, std::unique_ptr<Service>& svc) {
  std::vector<double> times;
  std::atomic<bool> noCorruption{false};
  for (std::size_t rep = 0; rep < plan.setupReps; ++rep) {
    if (svc) {
      svc->stop();
      svc.reset();
    }
    releaseFreedMemory();
    if (!plan.cfg.cacheFilePath.empty()) std::filesystem::remove(plan.cfg.cacheFilePath);
    const auto start = Clock::now();
    svc = std::make_unique<Service>(plan.cfg);
    svc->start();
    ServiceClient c = ServiceClient::connectTcp("127.0.0.1", svc->port());
    for (const Req& r : plan.bases) {
      Reply reply = roundTrip(c, r.payload, 0, -1);
      checkReply(r, reply, false, noCorruption, res);
    }
    times.push_back(secondsSince(start));
  }
  return median(times);
}

struct Window {
  std::vector<double> ms[kKinds];  ///< round trips by request kind
  std::vector<double> doneAt;      ///< completion times, seconds from the start
  std::uint64_t responses = 0;
  double seconds = 0.0;

  /// Mean of the middle half of the responses completed in each whole
  /// second of the window: a burst of host noise moves one second, not
  /// this. Short windows fall back to responses over the window.
  [[nodiscard]] double responsesPerSecond(double budget) const {
    const auto slots = static_cast<std::size_t>(budget);
    if (slots < 3) return static_cast<double>(responses) / seconds;
    std::vector<double> perSecond(slots, 0.0);
    for (double t : doneAt) {
      if (t < static_cast<double>(slots)) perSecond[static_cast<std::size_t>(t)] += 1.0;
    }
    return midMean(perSecond);
  }

  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> v;
    for (const auto& k : ms) v.insert(v.end(), k.begin(), k.end());
    return v;
  }
};

/// Closed loop: each client thread sends its next request as soon as the
/// previous answer arrived, until \p budget seconds have passed.
Window measure(const ServePlan& plan, const Service& svc, const Options& opts, double budget,
               std::uint64_t salt, std::atomic<bool>& corruptPending, Result& res) {
  std::vector<Window> perClient(plan.clients);
  std::vector<ServiceClient> conns;
  for (std::size_t t = 0; t < plan.clients; ++t) {
    conns.push_back(ServiceClient::connectTcp("127.0.0.1", svc.port()));
  }
  std::atomic<std::uint64_t> nextOp{salt << 32};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < plan.clients; ++t) {
    threads.emplace_back([&, t] {
      Window& w = perClient[t];
      Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + salt * 131 + t);
      std::vector<std::size_t> round;
      std::size_t shuffleIdx = t;
      std::size_t freshIdx = t;
      try {
        while (secondsSince(start) < budget) {
          const Req* req = nullptr;
          if (plan.churn) {
            const double u = rng.uniform();
            if (u < 0.60) {
              req = &plan.bases[rng.below(plan.bases.size())];
            } else if (u < 0.85) {
              req = &plan.shuffles[shuffleIdx % plan.shuffles.size()];
              shuffleIdx += plan.clients;
            } else {
              req = &plan.fresh[freshIdx % plan.fresh.size()];
              freshIdx += plan.clients;
            }
          } else {
            // Seeded rounds over the dags keep the mix exactly balanced.
            if (round.empty()) {
              for (std::size_t i = 0; i < plan.bases.size(); ++i) round.push_back(i);
              for (std::size_t i = round.size(); i > 1; --i) {
                std::swap(round[i - 1], round[rng.below(i)]);
              }
            }
            req = &plan.bases[round.back()];
            round.pop_back();
          }
          const std::uint64_t op = nextOp.fetch_add(1);
          const SpanScope span("serve.request", op);
          const auto t0 = Clock::now();
          Reply reply = roundTrip(conns[t], req->payload, op, span.id());
          w.ms[req->kind].push_back(secondsSince(t0) * 1e3);
          w.doneAt.push_back(secondsSince(start));
          ++w.responses;
          const SpanScope check("bench.check_response", op, span.id());
          checkReply(*req, reply, !plan.churn, corruptPending, res);
        }
      } catch (const std::exception& e) {
        res.attempt();
        res.fail(std::string("client ") + std::to_string(t) + ": " + e.what());
      }
      w.seconds = secondsSince(start);
    });
  }
  for (std::thread& th : threads) th.join();
  Window total;
  for (const Window& w : perClient) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      total.ms[k].insert(total.ms[k].end(), w.ms[k].begin(), w.ms[k].end());
    }
    total.doneAt.insert(total.doneAt.end(), w.doneAt.begin(), w.doneAt.end());
    total.responses += w.responses;
    total.seconds = std::max(total.seconds, w.seconds);
  }
  return total;
}

constexpr std::size_t kStageReps = 7;

/// Replays every service stage on the exact request and response bytes of
/// the workload and reports the per-layer metrics.
void reportServeLayers(const ServePlan& plan, const Options& opts, const Window& plain,
                       Result& res) {
  // The requests each stage sees: every base (the hit path), plus on churn a
  // sample of the shuffled and fresh texts (the parse and synthesis paths).
  std::vector<const Req*> hitPath;
  for (const Req& r : plan.bases) hitPath.push_back(&r);
  std::vector<const Req*> parsePath;
  std::vector<const Req*> freshSample;
  for (std::size_t i = 0; i < std::min<std::size_t>(8, plan.shuffles.size()); ++i) {
    parsePath.push_back(&plan.shuffles[i]);
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(8, plan.fresh.size()); ++i) {
    parsePath.push_back(&plan.fresh[i]);
    freshSample.push_back(&plan.fresh[i]);
  }

  std::uint64_t sink = 0;
  // Mean over \p reqs of the median time of fn(i) for the i-th request.
  const auto stageUs = [&](const char* span, const std::vector<const Req*>& reqs, auto&& fn) {
    const SpanScope s(span, 0);
    std::vector<double> us;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      us.push_back(medianSeconds(kStageReps, [&] { fn(i); }) * 1e6);
    }
    return mean(us);
  };
  std::vector<std::string> reqFrames;
  std::vector<ResponsePayload> responses;
  std::vector<std::string> respFrames;
  for (const Req* r : hitPath) {
    reqFrames.push_back(encodeRequest(r->payload));
    responses.push_back(r->expected);
    responses.back().flags = kRespFlagScheduleCacheHit;
    respFrames.push_back(encodeResponse(responses.back()));
  }

  double crcBytes = 0;
  double crcSeconds = 0;
  for (const std::string& frame : reqFrames) {
    const SpanScope s("replay.recovery.crc32", 0);
    crcBytes += static_cast<double>(frame.size() - kWireTrailerBytes);
    crcSeconds += medianSeconds(kStageReps, [&] {
      sink += recovery::crc32(frame.data(), frame.size() - kWireTrailerBytes);
    });
  }
  res.perLayer("recovery.crc32.mb_per_s", crcBytes / crcSeconds / 1e6);

  const double encReq = stageUs("replay.service.encode_request", hitPath, [&](std::size_t i) {
    sink += encodeRequest(hitPath[i]->payload).size();
  });
  const double frameDecode = stageUs("replay.service.frame_decode", hitPath, [&](std::size_t i) {
    FrameDecoder d(plan.cfg.maxFrameBytes);
    d.feed(reqFrames[i]);
    sink += decodeRequestPayload(d.next()->payload).stdinText.size();
  });
  const double textDigest = stageUs("replay.service.text_digest", hitPath, [&](std::size_t i) {
    sink += requestTextDigest(hitPath[i]->payload).lo;
  });
  const double encResp = stageUs("replay.service.encode_response", hitPath, [&](std::size_t i) {
    sink += encodeResponse(responses[i]).size();
  });
  const double respDecode = stageUs("replay.service.response_decode", hitPath, [&](std::size_t i) {
    FrameDecoder d;
    d.feed(respFrames[i]);
    sink += decodeResponsePayload(d.next()->payload).out.size();
  });

  ScheduleCache cache(std::max<std::size_t>(plan.cfg.scheduleCacheCapacity, hitPath.size()));
  std::vector<ScheduleCacheKey> keys;
  for (const Req* r : hitPath) {
    keys.push_back(*synthesisCacheKey(r->payload));
    cache.put(keys.back(), CachedResponse{r->expected.exitCode, r->expected.out, r->expected.err});
  }
  double lruNs = 0;
  {
    const SpanScope s("replay.service.lru_get", 0);
    std::vector<double> ns;
    for (const ScheduleCacheKey& k : keys) {
      ns.push_back(medianSeconds(kStageReps, [&] { sink += cache.get(k)->out.size(); }) * 1e9);
    }
    lruNs = mean(ns);
  }
  res.perLayer("service.wire.encode_request.us", encReq);
  res.perLayer("service.wire.frame_decode.us", frameDecode);
  res.perLayer("service.wire.encode_response.us", encResp);
  res.perLayer("service.request_handler.text_digest.us", textDigest);
  res.perLayer("service.schedule_cache.lru_get.ns", lruNs);

  // Round trip of an identical-byte repeat minus its stages: the time the
  // request spends in socket I/O and waiting for the daemon's I/O thread.
  const double stagesMs =
      (encReq + frameDecode + textDigest + lruNs / 1e3 + encResp + respDecode) / 1e3;
  res.perLayer("service.io_thread.wait_ms", mean(plain.ms[kRepeat]) - stagesMs);
  res.note("service.io_thread.wait_ms", "derived: mean repeat round trip minus hit-path stages");

  if (!plan.churn) return;
  double parseBytes = 0;
  double parseSeconds = 0;
  std::vector<double> digestUs;
  for (const Req* r : parsePath) {
    const SpanScope s("replay.io.read_dag", 0);
    Dag g;
    parseBytes += static_cast<double>(r->payload.stdinText.size());
    parseSeconds += medianSeconds(kStageReps, [&] { g = dagFromString(r->payload.stdinText); });
    digestUs.push_back(medianSeconds(kStageReps, [&] { sink += structuralDigest(g).lo; }) * 1e6);
  }
  res.perLayer("io.dag_io.read_dag.mb_per_s", parseBytes / parseSeconds / 1e6);
  res.perLayer("service.schedule_cache.structural_digest.us", mean(digestUs));
  res.perLayer("service.request_handler.cache_key.us",
               stageUs("replay.service.cache_key", parsePath, [&](std::size_t i) {
                 sink += synthesisCacheKey(parsePath[i]->payload)->digest.lo;
               }));
  std::vector<double> executeMs;
  for (const Req* r : freshSample) {
    const SpanScope s("replay.service.execute", 0);
    executeMs.push_back(
        medianSeconds(1, [&] { sink += executeRequest(r->payload).out.size(); }) * 1e3);
  }
  res.perLayer("service.request_handler.execute.ms", median(executeMs));

  const std::string appendPath =
      opts.runDir + "/append-" + std::to_string(::getpid()) + ".icscache";
  std::filesystem::remove(appendPath);
  {
    const SpanScope s("replay.service.persistent_append", 0);
    PersistentScheduleCache pc;
    (void)pc.openSalvage(appendPath, /*fsyncEvery=*/1, /*compactEvery=*/0);
    std::vector<double> us;
    for (const Req* r : freshSample) {
      const ScheduleCacheKey key = *synthesisCacheKey(r->payload);
      const CachedResponse resp{r->expected.exitCode, r->expected.out, r->expected.err};
      us.push_back(medianSeconds(1, [&] { pc.append(key, resp); }) * 1e6);
    }
    pc.close();
    res.perLayer("service.persistent_cache.append.us", median(us));
  }
  std::filesystem::remove(appendPath);
  {
    const SpanScope s("replay.service.persistent_salvage", 0);
    std::size_t entries = 0;
    const double seconds =
        medianSeconds(3, [&] { entries = loadCacheFile(plan.cfg.cacheFilePath).size(); });
    res.perLayer("service.persistent_cache.salvage.ms", seconds * 1e3);
    res.note("service.persistent_cache.salvaged_entries", static_cast<double>(entries));
  }
  volatile std::uint64_t observed = sink;  // keeps the replayed results live
  (void)observed;
}

void reportStats(const ServiceStats& before, const ServiceStats& after, Result& res) {
  const double requests = static_cast<double>(after.requests - before.requests);
  const auto ratio = [&](std::uint64_t a, std::uint64_t b) {
    return requests > 0 ? static_cast<double>(a - b) / requests : 0.0;
  };
  res.perLayer("service.stats.cache_hit_ratio",
               ratio(after.scheduleCacheHits, before.scheduleCacheHits));
  res.perLayer("service.stats.memo_hit_ratio", ratio(after.keyMemoHits, before.keyMemoHits));
  res.perLayer("service.stats.shed_ratio",
               ratio(after.shedOverload + after.shedQuota + after.deadlineExpired,
                     before.shedOverload + before.shedQuota + before.deadlineExpired));
  res.note("service.stats.cache_appends", static_cast<double>(after.cacheAppends));
  res.note("service.stats.cache_compactions", static_cast<double>(after.cacheCompactions));
}

}  // namespace

void runServeWorkload(const Options& opts, Result& res) {
  std::filesystem::create_directories(opts.runDir);
  ServePlan plan = makePlan(opts);
  computeReferences(plan, res);
  res.note("peak_rss_mb.after_references", peakRssMb());
  std::unique_ptr<Service> svc;
  const double setup = setUp(plan, res, svc);
  res.note("peak_rss_mb.after_setup", peakRssMb());
  releaseFreedMemory();
  std::atomic<bool> corruptPending{opts.corrupt};
  const ServiceStats before = svc->stats();

  if (!opts.trace) {
    const Window w = measure(plan, *svc, opts, opts.seconds, 1, corruptPending, res);
    const ServiceStats after = svc->stats();
    svc->stop();
    const Summary lat = summarize(w.all());
    res.endToEnd("ops_per_s", w.responsesPerSecond(opts.seconds));
    res.endToEnd("op_ms.tail", lat.tail);
    res.endToEnd("setup_s", setup);
    res.endToEnd("peak_rss_mb", peakRssMb());
    res.note("op_ms.mean", lat.mean);
    res.note("op_ms.p50", lat.p50);
    res.note("op_ms.tail_percentile", lat.tailPct);
    res.note("op_ms.samples", static_cast<double>(lat.n));
    res.note("ops.pooled_per_s", static_cast<double>(w.responses) / w.seconds);
    res.note("requests.repeat", static_cast<double>(w.ms[kRepeat].size()));
    res.note("requests.shuffle", static_cast<double>(w.ms[kShuffle].size()));
    res.note("requests.fresh", static_cast<double>(w.ms[kFresh].size()));
    res.note("service.cache_hits", static_cast<double>(after.scheduleCacheHits -
                                                       before.scheduleCacheHits));
    if (!plan.cfg.cacheFilePath.empty()) std::filesystem::remove(plan.cfg.cacheFilePath);
    return;
  }

  // Traced run: the same closed loop untraced, then traced (overhead), then
  // the stage replays on the workload's bytes.
  const Window plain = measure(plan, *svc, opts, 0.5 * opts.seconds, 1, corruptPending, res);
  tracer().enable(true);
  const Window traced = measure(plan, *svc, opts, 0.5 * opts.seconds, 2, corruptPending, res);
  const ServiceStats after = svc->stats();
  svc->stop();
  res.perLayer("bench.trace.overhead_pct", 100.0 * (mean(traced.all()) / mean(plain.all()) - 1.0));
  reportStats(before, after, res);
  reportServeLayers(plan, opts, plain, res);
  tracer().enable(false);
  if (!plan.cfg.cacheFilePath.empty()) std::filesystem::remove(plan.cfg.cacheFilePath);
}

}  // namespace icsbench
