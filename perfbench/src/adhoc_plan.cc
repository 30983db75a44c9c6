// adhoc_plan: compliance planning of a stream of ad-hoc PK-FK join
// queries that never repeat (§7.2 generator) against a 1,000-expression
// fine-grained policy catalog over SF-10 statistics with no data. One
// client runs a closed loop of Engine::Optimize; one op is one
// accept/reject decision. Exec, storage and net do no work here.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/plan_annotator.h"
#include "core/site_selector.h"
#include "expr/implication.h"
#include "optimizer/cardinality.h"
#include "optimizer/memo.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "plan/planner_context.h"
#include "sql/parser.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cgq;  // NOLINT

constexpr double kStatsScaleFactor = 10;
constexpr size_t kPolicies = 1000;
constexpr int kSetups = 7;
constexpr int kWarmupQueries = 300;
// Decisions covered by the decision digest and reject ratio: a fixed
// prefix of the stream, so both repeat exactly on the same seed.
constexpr int64_t kDigestDecisions = 2000;
constexpr double kTailPercentile = 0.99;
constexpr int kWritePairs = 500;
// The policy catalog is part of the workload's definition, like the
// schema; the seed draws the query stream. A per-seed catalog would make
// planning cost differ between seeds by more than a change should move it.
constexpr uint64_t kPolicySeed = 20210620;
constexpr uint64_t kWarmupSeed = 0x5eed5eed;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "adhoc_plan %s: %s\n", what, s.ToString().c_str());
    std::exit(3);
  }
}

struct Planner {
  std::unique_ptr<Engine> engine;
  WorkloadProperties properties = TpchWorkloadProperties();
  std::unique_ptr<AdhocQueryGenerator> queries;
};

std::unique_ptr<Planner> SetUp(uint64_t seed) {
  // Every set-up starts from an empty process-wide implication cache, so
  // repeated set-ups in one run do the same work.
  ImplicationCache::Global()->Clear();
  auto p = std::make_unique<Planner>();
  tpch::TpchConfig config;
  config.scale_factor = kStatsScaleFactor;
  config.seed = seed;
  Result<Catalog> catalog = tpch::BuildCatalog(config);
  Check(catalog.status(), "catalog");
  p->engine = std::make_unique<Engine>(std::move(*catalog),
                                       NetworkModel::DefaultGeo(5));
  p->engine->default_options().threads = 1;

  PolicyGeneratorConfig pconfig;
  pconfig.template_name = "F";
  pconfig.count = kPolicies;
  pconfig.ensure_feasible = false;
  pconfig.seed = kPolicySeed;
  PolicyExpressionGenerator policies(&p->engine->catalog(), &p->properties,
                                     pconfig);
  Check(policies.InstallInto(&p->engine->policies()), "policies");

  // Warm-up on a fixed stream of its own, so set-up is the same work at
  // every seed and the measured stream stays unseen.
  QueryGeneratorConfig warm;
  warm.seed = kWarmupSeed;
  AdhocQueryGenerator warmup(&p->engine->catalog(), &p->properties, warm);
  for (int i = 0; i < kWarmupQueries; ++i) {
    (void)p->engine->Optimize(warmup.Next());
  }
  QueryGeneratorConfig qconfig;
  qconfig.seed = seed;
  p->queries = std::make_unique<AdhocQueryGenerator>(
      &p->engine->catalog(), &p->properties, qconfig);
  return p;
}

/// What one optimization decided; equal decisions have equal strings.
std::string DecisionOf(const Result<OptimizedQuery>& r) {
  if (!r.ok()) return "reject";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "accept@%u cost=%.17g comm=%.17g",
                r->result_location, r->phase1_cost, r->comm_cost_ms);
  return buf;
}

/// Per-op layer observations of the traced pipeline.
struct LayerSamples {
  std::map<std::string, std::vector<double>> times;
  double memo_exprs = 0;
  double candidates = 0;
  double implication_tests = 0;
  double implication_hits = 0;
  int64_t ops = 0;
};

/// The optimizer pipeline driven layer by layer through each module's
/// public functions, with a span around every call. Produces the same
/// decision as Engine::Optimize (checked by the caller).
Result<OptimizedQuery> TracedOptimize(Engine& engine,
                                      const std::string& sql, Tracer* tracer,
                                      int64_t op, LayerSamples* samples) {
  auto timed = [&](const char* span, const char* metric, double scale,
                   auto&& fn) {
    const int s = tracer->Begin(span, op);
    auto r = fn();
    tracer->End(s);
    if (metric != nullptr) {
      samples->times[metric].push_back(tracer->DurationUs(s) / scale);
    }
    return r;
  };
  Tracer::Scope root(tracer, "decision", op);
  ++samples->ops;
  Result<QueryAst> ast = timed("sql.parse", "sql.parse_us", 1.0,
                               [&] { return ParseQuery(sql); });
  CGQ_RETURN_NOT_OK(ast.status());

  PlannerContext ctx(&engine.catalog());
  Result<LogicalPlan> logical =
      timed("plan.bind", "plan.bind_us", 1.0, [&]() -> Result<LogicalPlan> {
        CGQ_ASSIGN_OR_RETURN(BoundQuery bound, BindQuery(*ast, &ctx));
        return BuildLogicalPlan(bound, &ctx);
      });
  CGQ_RETURN_NOT_OK(logical.status());

  CardinalityEstimator estimator(&ctx);
  Memo memo(&ctx, &estimator);
  const int root_group =
      timed("optimizer.explore", "optimizer.explore_ms", 1000.0, [&] {
        const int g = memo.InsertTree(*logical->root);
        memo.Explore(engine.default_options().enable_agg_pushdown);
        return g;
      });
  samples->memo_exprs += static_cast<double>(memo.num_exprs());

  PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
  PlanAnnotator annotator(&memo, &evaluator,
                          PlanAnnotator::Mode::kCompliant);
  Result<PlanNodePtr> annotated =
      timed("core.annotate", "core.annotate_ms", 1000.0,
            [&] { return annotator.BestPlan(root_group); });
  const PolicyEvalStats stats = evaluator.stats();
  samples->times["core.policy_eval_ms"].push_back(stats.eval_ms);
  samples->candidates += static_cast<double>(stats.candidates);
  samples->implication_tests += static_cast<double>(stats.implication_tests);
  samples->implication_hits +=
      static_cast<double>(stats.implication_cache_hits);
  CGQ_RETURN_NOT_OK(annotated.status());

  SiteSelector selector(&engine.net(), SiteSelector::Objective::kTotalCost);
  Result<SitedPlan> sited = timed("core.site", "core.site_ms", 1000.0, [&] {
    return selector.Place(*annotated, LocationSet());
  });
  CGQ_RETURN_NOT_OK(sited.status());

  OptimizedQuery out;
  out.plan = sited->root;
  out.comm_cost_ms = sited->comm_cost_ms;
  out.result_location = sited->result_location;
  out.phase1_cost = (*annotated)->local_cost;
  ComplianceReport report =
      timed("core.check", nullptr, 1.0, [&] {
        return CheckCompliance(*out.plan, evaluator,
                               engine.catalog().locations());
      });
  out.compliant = report.compliant;
  return out;
}

/// Median latency of adding one row-restricted expression to the
/// 1,000-expression catalog (each add is removed again right after).
double TimePolicyAddsUs(PolicyCatalog* policies) {
  std::vector<double> add_us;
  for (int i = 0; i < kWritePairs; ++i) {
    const std::string text =
        "ship custkey, name from customer to l2 where custkey < " +
        std::to_string(1000 + i);
    const auto t0 = Clock::now();
    Check(policies->AddPolicyText("l1", text), "add policy");
    add_us.push_back(MsSince(t0) * 1000.0);
    int64_t id = -1;
    for (const PolicyExpression& e : policies->For(0)) id = std::max(id, e.id);
    Check(policies->RemovePolicy(id), "remove policy");
  }
  return Median(add_us);
}

}  // namespace

RunReport RunAdhocPlan(const RunConfig& cfg) {
  RunReport out;
  std::unique_ptr<Planner> p;
  const double setup_s = MedianSetupSeconds(
      cfg.trace ? 1 : kSetups, [&] { p = SetUp(cfg.seed); },
      [&] { p.reset(); });
  Engine& engine = *p->engine;

  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  std::vector<double> recheck_us;
  uint64_t digest = 1469598103934665603ull;
  int64_t rejected = 0;
  int64_t prefix_rejected = 0;
  Tracer tracer;
  LayerSamples samples;
  double busy_ms = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  for (int64_t op = 0; Clock::now() < deadline || op < kDigestDecisions;
       ++op) {
    const std::string sql = p->queries->Next();
    ++out.attempted;
    const bool traced = cfg.trace && op % 2 == 1;
    const auto t0 = Clock::now();
    Result<OptimizedQuery> r =
        traced ? TracedOptimize(engine, sql, &tracer, op, &samples)
               : engine.Optimize(sql);
    const double ms = MsSince(t0);
    (traced ? traced_ms : latency_ms).push_back(ms);
    if (!traced) busy_ms += ms;

    // Output checks, outside the timed path.
    if (!r.ok() && !r.status().IsNonCompliant()) {
      ++out.failed;
      out.Mismatch("unexpected status for '" + sql +
                   "': " + r.status().ToString());
      continue;
    }
    if (traced) {
      // The layer-by-layer pipeline must decide exactly as the engine.
      Result<OptimizedQuery> engine_r = engine.Optimize(sql);
      if (DecisionOf(engine_r) != DecisionOf(r)) {
        ++out.failed;
        out.Mismatch("traced pipeline decided differently for '" + sql + "'");
        continue;
      }
    }
    if (r.ok()) {
      PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
      const auto c0 = Clock::now();
      ComplianceReport proof = CheckCompliance(*r->plan, evaluator,
                                               engine.catalog().locations());
      recheck_us.push_back(MsSince(c0) * 1000.0);
      if (!r->compliant || !proof.compliant) {
        ++out.failed;
        out.Mismatch("accepted plan is not compliant: '" + sql + "'");
        continue;
      }
    } else {
      ++rejected;
    }
    if (op < kDigestDecisions) {
      digest = MixDigest(digest, DecisionOf(r) + "\n");
      if (!r.ok()) ++prefix_rejected;
    }
  }

  const double reject_ratio = static_cast<double>(prefix_rejected) /
                              static_cast<double>(kDigestDecisions);
  std::printf("adhoc_plan: %zu policies (template F), SF %.0f statistics, "
              "%lld decisions (%zu traced), %.1f%% rejected\n",
              kPolicies, kStatsScaleFactor,
              static_cast<long long>(out.attempted), traced_ms.size(),
              100.0 * static_cast<double>(rejected) /
                  static_cast<double>(out.attempted));
  std::printf("  decision digest over the first %lld decisions: %s\n",
              static_cast<long long>(kDigestDecisions), Hex(digest).c_str());
  out.Fixed("decision_digest", Hex(digest));
  out.Fixed("core.reject_ratio", std::to_string(reject_ratio));

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
  for (const auto& [name, values] : samples.times) layer[name] = Median(values);
  const double ops = static_cast<double>(samples.ops);
  layer["optimizer.memo_exprs"] = samples.memo_exprs / ops;
  layer["core.policy_candidates"] = samples.candidates / ops;
  layer["core.implication_tests"] = samples.implication_tests / ops;
  layer["core.implication_cache_hit_ratio"] =
      samples.implication_tests > 0
          ? samples.implication_hits / samples.implication_tests
          : 0;
  layer["core.reject_ratio"] = reject_ratio;
  layer["core.recheck_us"] = Median(recheck_us);
  layer["core.add_policy_us"] = TimePolicyAddsUs(&p->engine->policies());
  layer["bench.trace_overhead_pct"] =
      100.0 * (Median(traced_ms) / Median(latency_ms) - 1.0);
  layer["bench.unattributed_pct"] = tracer.UnattributedPct();
  tracer.PrintSelfTimes();
  if (!cfg.trace_out.empty() && !tracer.WriteChromeJson(cfg.trace_out)) {
    out.Mismatch("cannot write trace " + cfg.trace_out);
  }
  AddLayerMetrics(&out, layer);
  return out;
}

}  // namespace perfbench
