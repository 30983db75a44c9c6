// Randomized equivalence soak for the policy evaluator: generated catalogs
// (seeded, log-skewed sizes 10..10k over 5 and 20 regions) × the 24-query
// workload (the 12 paper TPC-H queries + 12 generated PK-FK join queries).
// For every single-database memo group of every query, evaluated at every
// location, the production path (PolicyEvaluator::Evaluate over the
// hierarchical index, with its merges, bucket prunes, premise masks and
// evaluation memo) must return exactly what ReferenceEvaluate — literal
// Algorithm 1 over every installed expression — returns. With provenance
// on, the per-attribute granted sets must be equal too, and every
// expression the production path names must be one the reference names.
//
// Every query is also optimized end to end with free and pinned result
// placement; accepted plans must be compliant, and the soak must see both
// rejected queries and absorbed policies.
//
// Runs at evaluator fan-out widths 1 and 4; the 4-wide variant doubles as
// the TSan target (ci.yml runs this test under the TSan filter).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer.h"
#include "core/policy_reference.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace cgq {
namespace {

// One TPC-H deployment (catalog + network + 24-query workload), shared by
// every generated policy catalog over the same region count.
struct Deployment {
  Result<Catalog> catalog;
  NetworkModel net = NetworkModel::DefaultGeo(1);
  WorkloadProperties properties;
  std::vector<std::string> workload;
  std::vector<std::vector<QuerySummary>> summaries;  ///< per query

  explicit Deployment(size_t num_regions)
      : catalog(tpch::BuildCatalog([&] {
          tpch::TpchConfig config;
          config.scale_factor = 1;
          config.num_locations = num_regions;
          return config;
        }())),
        net(NetworkModel::DefaultGeo(num_regions)),
        properties(TpchWorkloadProperties()) {
    if (!catalog.ok()) return;
    for (int q : {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 19}) {
      auto sql = tpch::Query(q);
      if (sql.ok()) workload.push_back(*sql);  // size checked by RunSoak
    }
    QueryGeneratorConfig qconfig;
    qconfig.seed = 29;
    AdhocQueryGenerator qgen(&*catalog, &properties, qconfig);
    for (int i = 0; i < 12; ++i) workload.push_back(qgen.Next());
    for (const std::string& sql : workload) {
      Result<std::vector<QuerySummary>> s =
          SingleDatabaseSummaries(*catalog, sql);
      EXPECT_TRUE(s.ok()) << s.status();
      summaries.emplace_back();
      if (s.ok()) summaries.back() = std::move(*s);
    }
  }
};

// Log-skewed catalog size for soak iteration i of n: mostly small catalogs
// (cheap, many seeds) with a heavy tail reaching 10k at the last index.
size_t SizeFor(size_t i, size_t n) {
  double t = static_cast<double>(i) / static_cast<double>(n - 1);
  double s = 10.0 * std::pow(1000.0, t * t * t * t);
  return static_cast<size_t>(s);
}

bool Contains(const std::vector<const PolicyExpression*>& list,
              const PolicyExpression* e) {
  return std::find(list.begin(), list.end(), e) != list.end();
}

// Production vs reference on one (summary, db) pair, on both the memo path
// and the provenance path.
void ExpectSameAsReference(const Catalog& catalog,
                           const PolicyCatalog& policies,
                           const PolicyEvaluator& evaluator,
                           const QuerySummary& summary, LocationId db) {
  std::vector<AttrGrant> ref_grants;
  const LocationSet ref =
      ReferenceEvaluate(catalog, policies, summary, db, &ref_grants);
  EXPECT_EQ(evaluator.Evaluate(summary, db), ref) << "db " << db;

  std::vector<AttrGrant> grants;
  EXPECT_EQ(evaluator.Evaluate(summary, db, &grants), ref) << "db " << db;
  ASSERT_EQ(grants.size(), ref_grants.size());
  for (size_t a = 0; a < grants.size(); ++a) {
    SCOPED_TRACE("attribute " + grants[a].base.ToString());
    EXPECT_EQ(grants[a].base, ref_grants[a].base);
    EXPECT_EQ(grants[a].fn, ref_grants[a].fn);
    EXPECT_EQ(grants[a].granted, ref_grants[a].granted);
    for (const PolicyExpression* e : grants[a].granted_by) {
      EXPECT_TRUE(Contains(ref_grants[a].granted_by, e))
          << "policy id " << e->id << " not granting in the reference";
    }
  }
}

void RunSoak(int threads, uint64_t seed_base, size_t num_catalogs) {
  Deployment small(5);
  Deployment large(20);
  ASSERT_TRUE(small.catalog.ok());
  ASSERT_TRUE(large.catalog.ok());
  ASSERT_EQ(small.workload.size(), 24u);
  ASSERT_EQ(large.workload.size(), 24u);

  size_t rejected = 0, total_absorbed = 0, pairs = 0;
  for (size_t i = 0; i < num_catalogs; ++i) {
    SCOPED_TRACE("catalog " + std::to_string(i));
    Deployment& dep = (i % 2 == 0) ? small : large;
    const size_t regions = (i % 2 == 0) ? 5 : 20;

    // Template F is fine-grained but has no aggregate expressions; every
    // third catalog is CRA, so §5's aggregate case is exercised too.
    PolicyGeneratorConfig pconfig;
    pconfig.template_name = i % 3 == 2 ? "CRA" : "F";
    pconfig.count = SizeFor(i, num_catalogs);
    pconfig.seed = seed_base + i;
    pconfig.locations_per_expr = 1 + i % 4;
    pconfig.hub = static_cast<LocationId>(regions - 1);

    PolicyCatalog policies(&*dep.catalog);
    PolicyExpressionGenerator pgen(&*dep.catalog, &dep.properties, pconfig);
    const std::vector<GeneratedPolicy> generated = pgen.Generate();
    for (const GeneratedPolicy& p : generated) {
      ASSERT_TRUE(policies.AddPolicyText(p.location, p.text).ok()) << p.text;
    }
    // Merging must never lose an installed expression.
    ASSERT_EQ(policies.TotalCount(), generated.size());
    total_absorbed += policies.Stats().absorbed;

    PolicyEvaluator evaluator(&*dep.catalog, &policies);
    if (threads > 1) evaluator.set_parallelism(ThreadPool::Shared(), threads);
    for (size_t q = 0; q < dep.workload.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      for (const QuerySummary& summary : dep.summaries[q]) {
        for (LocationId db = 0; db < regions; ++db) {
          ExpectSameAsReference(*dep.catalog, policies, evaluator, summary, db);
          ++pairs;
        }
      }
    }

    // Two optimizer passes: free placement (the optimizer may park the
    // result anywhere legal) and pinned placement (result forced to a
    // rotating location, which makes some queries outright
    // non-compliant).
    OptimizerOptions oopts;
    oopts.threads = threads;
    OptimizerOptions pinned = oopts;
    pinned.required_result =
        LocationSet::Single(static_cast<LocationId>(i % regions));
    for (const OptimizerOptions& opts : {oopts, pinned}) {
      QueryOptimizer optimizer(&*dep.catalog, &policies, &dep.net, opts);
      for (size_t q = 0; q < dep.workload.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        Result<OptimizedQuery> r = optimizer.Optimize(dep.workload[q]);
        if (r.ok()) {
          EXPECT_TRUE(r->compliant);
        } else {
          EXPECT_TRUE(r.status().IsNonCompliant()) << r.status();
          ++rejected;
        }
      }
    }
  }
  // The soak must exercise both interesting regimes: some queries rejected
  // outright, and some policies merged by the index.
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(total_absorbed, 0u);
}

TEST(PolicyIndexEquivalence, SoakSequential) { RunSoak(1, 1000, 100); }

TEST(PolicyIndexEquivalence, SoakParallel4) { RunSoak(4, 2000, 100); }

}  // namespace
}  // namespace cgq
