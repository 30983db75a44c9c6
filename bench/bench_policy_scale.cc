// Policy scale-out: the production policy evaluator vs the Algorithm-1
// reference.
//
// Sweeps catalog size {100, 1k, 10k} x regions {5, 20} (tiny: {100, 1k}),
// generating fine-grained ("F" template) expression sets, and reports
//
//   - AddPolicy throughput (catalog construction, incl. online merge),
//   - policy-evaluation time over the (single-database memo group, db)
//     pairs of a 12-query workload (TPC-H Q2/Q6/Q10 + nine ad-hoc PK-FK
//     join queries): PolicyEvaluator::Evaluate, cold (evaluation memo
//     invalidated, so every pair walks the index) and warm (all memo
//     hits), against ReferenceEvaluate over the identical pair list,
//   - end-to-end optimization time of the workload,
//
// asserting that production and reference return the same legal set on
// every pair. The JSON rows seed BENCH_policy.json, pinned by the CI
// `policy-scale` job: >15% regression of the cold or warm production eval
// time or any decision mismatch fails the gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/optimizer.h"
#include "core/policy_reference.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

using namespace cgq;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

LocationId DatabaseOf(const QuerySummary& s) {
  return s.source_locations.ToVector().front();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  bench::JsonReport report(opts.json_path);

  std::vector<size_t> sizes = {100, 1000, 10000};
  if (opts.tiny) sizes = {100, 1000};
  const std::vector<size_t> regions = {5, 20};

  bool all_equal = true;
  double largest_speedup = 0, largest_cold_speedup = 0;

  for (size_t num_regions : regions) {
    tpch::TpchConfig config;
    config.scale_factor = 10;
    config.num_locations = num_regions;
    auto catalog = tpch::BuildCatalog(config);
    if (!catalog.ok()) return 1;
    NetworkModel net = NetworkModel::DefaultGeo(num_regions);
    WorkloadProperties properties = TpchWorkloadProperties();

    // Fixed 12-query workload: the most/least join-heavy paper queries, a
    // scan-heavy one, and nine generated PK-FK join queries.
    std::vector<std::string> workload;
    for (int q : {2, 6, 10}) workload.push_back(*tpch::Query(q));
    QueryGeneratorConfig qconfig;
    qconfig.seed = 13;
    AdhocQueryGenerator qgen(&*catalog, &properties, qconfig);
    for (int i = 0; i < 9; ++i) workload.push_back(qgen.Next());
    std::vector<QuerySummary> pairs;
    for (const std::string& sql : workload) {
      Result<std::vector<QuerySummary>> s =
          SingleDatabaseSummaries(*catalog, sql);
      if (!s.ok()) return 1;
      pairs.insert(pairs.end(), s->begin(), s->end());
    }

    for (size_t size : sizes) {
      bench::PrintHeader(
          "policy_scale: " + std::to_string(size) + " policies, " +
          std::to_string(num_regions) + " regions (template F, " +
          std::to_string(workload.size()) + "-query workload, " +
          std::to_string(pairs.size()) + " (group, db) pairs)");

      PolicyGeneratorConfig pconfig;
      pconfig.template_name = "F";
      pconfig.count = size;
      pconfig.seed = 11 + size;
      pconfig.locations_per_expr = 3;
      pconfig.hub = static_cast<LocationId>(num_regions - 1);

      // Catalog construction is measured once (the AddPolicy throughput
      // row) and kept out of the evaluation timings below.
      PolicyCatalog policies(&*catalog);
      PolicyExpressionGenerator pgen(&*catalog, &properties, pconfig);
      auto t0 = Clock::now();
      if (!pgen.InstallInto(&policies).ok()) return 1;
      const double add_ms = MsSince(t0);
      PolicyCatalog::IndexStats istats = policies.Stats();

      // First pass (empty evaluation memo): the reference decisions and
      // the evaluator's work counters.
      PolicyEvaluator evaluator(&*catalog, &policies);
      std::vector<LocationSet> legal(pairs.size());
      for (size_t i = 0; i < pairs.size(); ++i) {
        legal[i] = ReferenceEvaluate(*catalog, policies, pairs[i],
                                     DatabaseOf(pairs[i]));
        evaluator.Evaluate(pairs[i], DatabaseOf(pairs[i]));
      }
      const PolicyEvalStats cold = evaluator.stats();

      // `reps` timed passes of each; report the minimum. A cold pass runs
      // right after ShuffleBucketsForTest, whose epoch bump makes every
      // evaluation-memo lookup miss, so each pair walks the (permuted)
      // index; the warm pass that follows is all memo hits. Both must
      // return the reference decision on every pair.
      OptimizerOptions oopts;
      oopts.threads = 1;
      QueryOptimizer optimizer(&*catalog, &policies, &net, oopts);
      double cold_ms = 1e300, eval_ms = 1e300, ref_ms = 1e300;
      double opt_ms = 1e300;
      size_t mismatches = 0;
      auto production_pass = [&] {
        const auto start = Clock::now();
        std::vector<LocationSet> got(pairs.size());
        for (size_t i = 0; i < pairs.size(); ++i) {
          got[i] = evaluator.Evaluate(pairs[i], DatabaseOf(pairs[i]));
        }
        const double ms = MsSince(start);
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (got[i] == legal[i]) continue;
          ++mismatches;
          std::printf("  DECISION MISMATCH on (group, db) pair %zu\n", i);
        }
        return ms;
      };
      for (int rep = 0; rep < std::max(opts.reps, 1); ++rep) {
        policies.ShuffleBucketsForTest(static_cast<uint64_t>(rep) + 1);
        cold_ms = std::min(cold_ms, production_pass());
        eval_ms = std::min(eval_ms, production_pass());
        t0 = Clock::now();
        for (const QuerySummary& s : pairs) {
          ReferenceEvaluate(*catalog, policies, s, DatabaseOf(s));
        }
        ref_ms = std::min(ref_ms, MsSince(t0));
        t0 = Clock::now();
        for (const std::string& sql : workload) (void)optimizer.Optimize(sql);
        opt_ms = std::min(opt_ms, MsSince(t0));
      }
      all_equal &= mismatches == 0;

      const double speedup = eval_ms > 0 ? ref_ms / eval_ms : 0;
      const double cold_speedup = cold_ms > 0 ? ref_ms / cold_ms : 0;
      if (size == sizes.back() && num_regions == regions.back()) {
        largest_speedup = speedup;
        largest_cold_speedup = cold_speedup;
      }

      std::printf("%-10s %-12s %-12s %-12s %-12s %-10s\n", "add [ms]",
                  "cold [ms]", "warm [ms]", "ref [ms]", "opt [ms]",
                  "candidates");
      std::printf("%-10.2f %-12.3f %-12.3f %-12.3f %-12.2f %-10lld\n",
                  add_ms, cold_ms, eval_ms, ref_ms, opt_ms,
                  static_cast<long long>(cold.candidates));
      std::printf(
          "speedup over reference: warm %.1fx, cold %.1fx | active %zu "
          "merged %zu buckets %zu (max %zu) | impl tests %lld, prefilter "
          "skips %lld | decisions %s\n",
          speedup, cold_speedup, istats.active, istats.absorbed,
          istats.buckets, istats.max_bucket,
          static_cast<long long>(cold.implication_tests),
          static_cast<long long>(cold.prefilter_skips),
          mismatches == 0 ? "identical" : "MISMATCH");

      report.Add(bench::JsonRow()
                     .Set("bench", "policy_scale")
                     .Set("section", "sweep")
                     .Set("policies", size)
                     .Set("regions", num_regions)
                     .Set("queries", workload.size())
                     .Set("pairs", pairs.size())
                     .Set("hier_eval_ms", eval_ms)
                     .Set("cold_eval_ms", cold_ms)
                     .Set("reference_eval_ms", ref_ms)
                     .Set("opt_ms", opt_ms)
                     .Set("candidates", cold.candidates)
                     .Set("implication_tests", cold.implication_tests)
                     .Set("prefilter_skips", cold.prefilter_skips)
                     .Set("eval_speedup", speedup)
                     .Set("cold_eval_speedup", cold_speedup)
                     .Set("active", istats.active)
                     .Set("absorbed", istats.absorbed)
                     .Set("buckets", istats.buckets)
                     .Set("max_bucket", istats.max_bucket)
                     .Set("decisions_equal", mismatches == 0));

      // AddPolicy throughput row (policies/second, parse included).
      report.Add(bench::JsonRow()
                     .Set("bench", "policy_scale")
                     .Set("section", "addpolicy")
                     .Set("policies", size)
                     .Set("regions", num_regions)
                     .Set("add_ms", add_ms)
                     .Set("policies_per_sec",
                          add_ms > 0 ? 1000.0 * static_cast<double>(size) /
                                           add_ms
                                     : 0));
    }
  }

  std::printf("\nlargest-scale eval speedup (production vs reference): "
              "warm %.2fx, cold %.2fx; decisions identical: %s\n",
              largest_speedup, largest_cold_speedup,
              all_equal ? "yes" : "NO");

  if (!report.Flush()) return 1;
  return all_equal ? 0 : 1;
}
