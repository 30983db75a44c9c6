// serve_mixed: the multi-tenant front door's cache-hit path. One client
// rotates over four tenants' token sessions of a QueryService; each query
// is a fresh-literal instance of one of four single-table templates on
// small in-memory TPC-H tables under CR+A, chosen to cost about the same.
// Almost every query is a parameterized plan-cache hit with a
// Definition-1 re-check, so admission, the worker hand-off, the cache
// lookup and the re-check are most of a query's latency. Every
// kWriteEvery-th op is a policy write through the service, which drains
// in-flight queries and invalidates the supplier templates' plans.
//
// Closed loop: the next op is sent when the previous one returns. (An
// open-loop generator was tried first; see README.md.)

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/implication.h"
#include "service/query_service.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cgq;  // NOLINT

constexpr double kScaleFactor = 0.01;
constexpr int kSetups = 5;
constexpr int kTenants = 4;
constexpr int kMaxInflight = 2;
constexpr int kTemplates = 4;
constexpr int kWarmupPerTemplate = 25;
constexpr int64_t kWriteEvery = 500;
constexpr double kTailPercentile = 0.99;
// Every kSampleEvery-th query's result is re-executed on the row backend;
// the first kDigestSamples of them form the run's result digest.
constexpr int64_t kSampleEvery = 64;
constexpr int kDigestSamples = 64;
constexpr LocationId kSupplierSite = 1;  // l2 holds supplier
constexpr uint64_t kWarmupSeed = 0x5eed5eed;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "serve_mixed %s: %s\n", what, s.ToString().c_str());
    std::exit(3);
  }
}

/// Templates of one cost class: a point lookup and a two-conjunct filter
/// on each of supplier (100 rows) and nation (25 rows), so execution is
/// small next to the service and plan-cache path.
std::string MakeQuery(int template_id, Rng* rng) {
  char buf[160];
  switch (template_id) {
    case 0:
      std::snprintf(buf, sizeof(buf),
                    "SELECT name, phone FROM supplier WHERE suppkey = %lld",
                    static_cast<long long>(rng->Uniform(1, 100)));
      break;
    case 1:
      std::snprintf(buf, sizeof(buf),
                    "SELECT name, acctbal FROM supplier WHERE nationkey = "
                    "%lld AND acctbal > %lld.5",
                    static_cast<long long>(rng->Uniform(0, 24)),
                    static_cast<long long>(rng->Uniform(0, 9000)));
      break;
    case 2:
      std::snprintf(buf, sizeof(buf),
                    "SELECT name, regionkey FROM nation WHERE nationkey = %lld",
                    static_cast<long long>(rng->Uniform(0, 24)));
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "SELECT name FROM nation WHERE regionkey = %lld AND "
                    "nationkey > %lld",
                    static_cast<long long>(rng->Uniform(0, 4)),
                    static_cast<long long>(rng->Uniform(0, 20)));
      break;
  }
  return buf;
}

struct Front {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<std::string> tokens;
  PlanCacheStats warm_cache;
};

std::unique_ptr<Front> SetUp(uint64_t seed) {
  ImplicationCache::Global()->Clear();
  auto f = std::make_unique<Front>();
  tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = seed;
  Result<Catalog> catalog = tpch::BuildCatalog(config);
  Check(catalog.status(), "catalog");
  f->engine = std::make_unique<Engine>(std::move(*catalog),
                                       NetworkModel::DefaultGeo(5));
  Engine& engine = *f->engine;
  Check(tpch::InstallPolicySet("CRA", &engine.policies()), "policies");
  Check(tpch::GenerateData(engine.catalog(), config, &engine.store()),
        "data");
  engine.set_exec_mode(ExecMode::kFragment);
  engine.default_exec_options().threads = 1;
  engine.default_options().threads = 1;

  ServiceOptions sopts;
  sopts.max_inflight = kMaxInflight;
  sopts.queue_capacity = 64;
  sopts.queue_timeout_ms = 1000;
  f->service = std::make_unique<QueryService>(&engine, sopts);
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    f->tokens.push_back("token-" + name);
    Check(f->service->tenants().Register(name, f->tokens.back(), {}).status(),
          "tenant");
  }

  // Warm-up: each template with fresh literals fills the shared cache.
  Rng rng(kWarmupSeed);
  QueryService::Session session = f->service->OpenSession();
  for (int i = 0; i < kWarmupPerTemplate; ++i) {
    for (int t = 0; t < kTemplates; ++t) {
      Check(session.Run(MakeQuery(t, &rng)).status(), "warm-up");
    }
  }
  f->warm_cache = f->service->plan_cache()->stats();
  return f;
}

/// The policy write of op `op`: odd writes add a row-restricted supplier
/// expression, even ones remove it again, so the catalog ends as it began.
/// `direct` writes the catalog itself instead of going through the
/// service (safe only with nothing in flight). Returns the latency in ms.
double PolicyWrite(Front* f, int64_t op, bool direct, int64_t* added) {
  PolicyCatalog& policies = f->engine->policies();
  const auto t0 = Clock::now();
  if (*added < 0) {
    const std::string text =
        "ship suppkey, name from supplier to l1 where suppkey < " +
        std::to_string(10 + (op / kWriteEvery) % 50);
    Check(direct ? policies.AddPolicyText("l2", text)
                 : f->service->AddPolicy("l2", text),
          "add policy");
    const double ms = MsSince(t0);
    for (const PolicyExpression& e : policies.For(kSupplierSite)) {
      *added = std::max(*added, e.id);
    }
    return ms;
  }
  Check(direct ? policies.RemovePolicy(*added)
               : f->service->RemovePolicy(*added),
        "remove policy");
  *added = -1;
  return MsSince(t0);
}

struct Sampled {
  std::string sql;
  uint64_t digest;
};

}  // namespace

RunReport RunServeMixed(const RunConfig& cfg) {
  RunReport out;
  std::unique_ptr<Front> f;
  const double setup_s = MedianSetupSeconds(
      cfg.trace ? 1 : kSetups, [&] { f = SetUp(cfg.seed); },
      [&] { f.reset(); });
  Engine& engine = *f->engine;
  PlanCache* cache = f->service->plan_cache();
  std::vector<QueryService::Session> sessions;
  for (const std::string& token : f->tokens) {
    Result<QueryService::Session> s = f->service->OpenSession(token);
    Check(s.status(), "session");
    sessions.push_back(std::move(*s));
  }

  // Untraced: every query through its tenant's session. Traced: queries
  // rotate between Session::Run, Engine::Run (the same path without the
  // service) and the cache-hit path driven module by module under spans;
  // writes alternate between the service and the catalog directly.
  Rng stream(cfg.seed);
  std::vector<double> latency_ms;
  std::vector<double> direct_us, session_us, traced_us;
  std::vector<double> service_add_us, direct_add_us;
  std::vector<Sampled> sampled;
  std::map<std::string, std::vector<double>> samples;
  Tracer tracer;
  double busy_ms = 0;
  int64_t added = -1;
  int64_t queries = 0;
  const PlanCacheStats cache_before = cache->stats();
  const int64_t min_ops = kSampleEvery * kDigestSamples * 2;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  for (int64_t op = 0;
       Clock::now() < deadline || op < min_ops || added >= 0; ++op) {
    ++out.attempted;
    if (op % kWriteEvery == kWriteEvery - 1) {
      const bool direct = cfg.trace && (op / kWriteEvery) % 4 >= 2;
      const bool adding = added < 0;
      const double ms = PolicyWrite(f.get(), op, direct, &added);
      if (adding) (direct ? direct_add_us : service_add_us).push_back(ms * 1e3);
      continue;
    }
    const std::string sql =
        MakeQuery(static_cast<int>(stream.Uniform(0, kTemplates - 1)),
                  &stream);
    QueryService::Session& session =
        sessions[static_cast<size_t>(queries % kTenants)];
    const int path = cfg.trace ? static_cast<int>(queries % 3) : 0;
    const auto t0 = Clock::now();
    Result<QueryResult> r = Status::Internal("not run");
    if (path == 0) {
      r = session.Run(sql);
    } else if (path == 1) {
      r = engine.Run(sql);
    } else {
      Tracer::Scope root(&tracer, "query", op);
      r = TracedCachedRun(engine, cache, sql, &tracer, op, &samples);
    }
    const double us = MsSince(t0) * 1000.0;
    if (path == 2 && !r.ok() && r.status().IsInternal()) {
      // The last policy write invalidated this template's plan: the
      // engine re-optimizes and caches it; the traced sample is dropped.
      r = engine.Run(sql);
    } else {
      (path == 0 ? session_us : path == 1 ? direct_us : traced_us)
          .push_back(us);
    }
    if (path == 0) {
      latency_ms.push_back(us / 1000.0);
      busy_ms += us / 1000.0;
    }
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   r.status().ToString().c_str());
      ++out.failed;
    } else if (queries % kSampleEvery == 0) {
      sampled.push_back({sql, ResultDigest(*r)});
    }
    ++queries;
  }
  const PlanCacheStats cache_after = cache->stats();

  // Output checks, outside the timed path: sampled results against the
  // row backend on a freshly optimized plan.
  ExecutorOptions row_exec;
  row_exec.mode = ExecMode::kRow;
  row_exec.threads = 1;
  uint64_t digest = 1469598103934665603ull;
  for (size_t i = 0; i < sampled.size(); ++i) {
    Result<OptimizedQuery> plan = engine.Optimize(sampled[i].sql);
    Check(plan.status(), "reference optimize");
    Executor executor(&engine.store(), &engine.net(), row_exec);
    Result<QueryResult> r = executor.Execute(*plan);
    Check(r.status(), "reference execute");
    if (ResultDigest(*r) != sampled[i].digest) {
      ++out.failed;
      out.Mismatch("served result differs from the row reference: " +
                   sampled[i].sql);
    }
    if (i < kDigestSamples) digest = MixDigest(digest, Hex(sampled[i].digest));
  }

  const int64_t hits = cache_after.hits - cache_before.hits;
  const int64_t lookups = hits + (cache_after.misses - cache_before.misses);
  std::printf("serve_mixed: %d tenants, max_inflight %d, %lld queries, "
              "%lld policy writes, %.2f%% plan-cache hits, %zu results "
              "checked\n",
              kTenants, kMaxInflight, static_cast<long long>(queries),
              static_cast<long long>(out.attempted - queries),
              lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              sampled.size());
  std::printf("  result digest over the first %d checked results: %s\n",
              kDigestSamples, Hex(digest).c_str());
  const PlanCacheStats& w = f->warm_cache;
  out.Fixed("sample_digest", Hex(digest));
  out.Fixed("warmup_cache", std::to_string(w.exact_hits) + " exact + " +
                                std::to_string(w.param_hits) +
                                " param hits, " + std::to_string(w.misses) +
                                " misses");

  if (!cfg.trace) {
    out.Add("setup_s", setup_s, "s");
    out.Add("p50_ms", Median(latency_ms), "ms");
    out.Add("tail_ms", Percentile(latency_ms, kTailPercentile), "ms");
    out.Add("capacity_qps",
            static_cast<double>(latency_ms.size()) / (busy_ms / 1000.0),
            "queries/s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  std::map<std::string, double> layer;
  for (const auto& [name, values] : samples) layer[name] = Median(values);
  layer["service.dispatch_us"] = Median(session_us) - Median(direct_us);
  // One client in a closed loop: nothing ever waits behind another query.
  layer["service.queue_depth_mean"] = 0;
  if (lookups > 0) {
    layer["service.cache_hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(lookups);
    layer["service.param_hit_ratio"] =
        static_cast<double>(cache_after.param_hits - cache_before.param_hits) /
        static_cast<double>(lookups);
  }
  layer["service.invalidations"] = static_cast<double>(
      cache_after.invalidations - cache_before.invalidations);
  layer["core.add_policy_us"] = Median(direct_add_us);
  layer["service.drain_ms"] =
      (Median(service_add_us) - Median(direct_add_us)) / 1000.0;
  layer["bench.trace_overhead_pct"] =
      100.0 * (Median(traced_us) / Median(direct_us) - 1.0);
  layer["bench.unattributed_pct"] = tracer.UnattributedPct();
  tracer.PrintSelfTimes();
  if (!cfg.trace_out.empty() && !tracer.WriteChromeJson(cfg.trace_out)) {
    out.Mismatch("cannot write trace " + cfg.trace_out);
  }
  AddLayerMetrics(&out, layer);
  return out;
}

}  // namespace perfbench
