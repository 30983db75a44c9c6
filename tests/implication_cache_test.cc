// The implication-result cache must be a transparent memo: same verdicts
// as the direct Goldstein-Larson test, under any conjunct order, any
// premise/conclusion role of a predicate, any eviction pressure, and any
// number of concurrent callers.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/optimizer.h"
#include "expr/implication.h"
#include "net/network_model.h"
#include "sql/parser.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"

namespace cgq {
namespace {

std::vector<ExprPtr> Pred(const std::string& text) {
  auto r = ParseQuery("SELECT x FROM t WHERE " + text);
  EXPECT_TRUE(r.ok()) << r.status();
  return SplitConjuncts(r->where);
}

// Random conjunction over a tiny column/value domain — small enough that
// premise/conclusion pairs frequently relate, so both verdicts occur.
std::string RandomPredicateText(Rng* rng) {
  static const char* kCols[] = {"a", "b", "c"};
  static const char* kOps[] = {"<", "<=", "=", ">=", ">"};
  int conjuncts = static_cast<int>(rng->Uniform(1, 3));
  std::string out;
  for (int i = 0; i < conjuncts; ++i) {
    if (i > 0) out += " AND ";
    out += kCols[rng->Uniform(0, 2)];
    out += " ";
    out += kOps[rng->Uniform(0, 4)];
    out += " ";
    out += std::to_string(rng->Uniform(0, 12));
  }
  return out;
}

TEST(ImplicationCacheTest, MatchesUncachedOnRandomizedPredicates) {
  Rng rng(2024);
  ImplicationCache cache;
  std::vector<std::vector<ExprPtr>> preds;
  for (int i = 0; i < 40; ++i) preds.push_back(Pred(RandomPredicateText(&rng)));

  int agreements = 0;
  for (int round = 0; round < 2; ++round) {  // cold pass, then warm pass
    for (const auto& premise : preds) {
      for (const auto& conclusion : preds) {
        bool direct = PredicateImplies(premise, conclusion);
        bool cached = cache.Implies(premise, conclusion);
        ASSERT_EQ(direct, cached);
        ++agreements;
      }
    }
  }
  EXPECT_EQ(agreements, 2 * 40 * 40);
  ImplicationCacheStats stats = cache.Stats();
  // The warm pass answers everything from the memo.
  EXPECT_GE(stats.hits, 40 * 40);
  EXPECT_EQ(stats.hits + stats.misses, 2 * 40 * 40);
}

TEST(ImplicationCacheTest, FingerprintIgnoresConjunctOrder) {
  // PredicateImplies treats a predicate as a conjunct *set*; the
  // fingerprint must too, or reordered queries would miss the memo.
  std::vector<ExprPtr> ab = Pred("a > 5 AND b < 10");
  std::vector<ExprPtr> ba = Pred("b < 10 AND a > 5");
  ExprFingerprint fab = FingerprintConjuncts(ab);
  ExprFingerprint fba = FingerprintConjuncts(ba);
  EXPECT_EQ(fab, fba);
  ExprFingerprint other = FingerprintConjuncts(Pred("a > 5 AND b < 11"));
  EXPECT_FALSE(fab == other);
}

TEST(ImplicationCacheTest, FingerprintCollisionSanity) {
  // Thousands of structurally distinct predicates must hash to distinct
  // 128-bit fingerprints (a collision here would silently corrupt
  // compliance verdicts).
  std::set<std::pair<uint64_t, uint64_t>> seen;
  int count = 0;
  for (const char* col : {"a", "b", "c", "d"}) {
    for (const char* op : {"<", "<=", "=", ">=", ">", "<>"}) {
      for (int v = 0; v < 60; ++v) {
        std::string text = std::string(col) + " " + op + " " +
                           std::to_string(v);
        ExprFingerprint fp = FingerprintConjuncts(Pred(text));
        EXPECT_TRUE(seen.emplace(fp.hi, fp.lo).second) << text;
        ++count;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);

  // Value-type tagging: integer 5 and string '5' must not alias.
  EXPECT_FALSE(FingerprintConjuncts(Pred("a = 5")) ==
               FingerprintConjuncts(Pred("a = '5'")));
}

TEST(ImplicationCacheTest, DirectionalKeysDoNotAlias) {
  // (P => Q) and (Q => P) share the same fingerprints in swapped roles;
  // the combined cache key must keep them apart.
  std::vector<ExprPtr> strong = Pred("b > 15");
  std::vector<ExprPtr> weak = Pred("b > 10");
  ImplicationCache cache;
  EXPECT_TRUE(cache.Implies(strong, weak));
  EXPECT_FALSE(cache.Implies(weak, strong));
  // Warm answers stay distinct.
  EXPECT_TRUE(cache.Implies(strong, weak));
  EXPECT_FALSE(cache.Implies(weak, strong));
}

TEST(ImplicationCacheTest, CorrectUnderEvictionPressure) {
  // A capacity far below the working set forces shard flushes; verdicts
  // must still match the direct test.
  Rng rng(7);
  ImplicationCache tiny(/*max_entries=*/32);
  std::vector<std::vector<ExprPtr>> preds;
  for (int i = 0; i < 30; ++i) preds.push_back(Pred(RandomPredicateText(&rng)));
  for (int round = 0; round < 3; ++round) {
    for (const auto& p : preds) {
      for (const auto& c : preds) {
        ASSERT_EQ(PredicateImplies(p, c), tiny.Implies(p, c));
      }
    }
  }
  EXPECT_GT(tiny.Stats().evictions, 0);
}

TEST(ImplicationCacheTest, ThreadedStressMatchesReference) {
  Rng rng(99);
  std::vector<std::vector<ExprPtr>> preds;
  for (int i = 0; i < 24; ++i) preds.push_back(Pred(RandomPredicateText(&rng)));

  // Reference verdicts, computed sequentially without the cache.
  std::vector<std::vector<bool>> expected(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    for (size_t j = 0; j < preds.size(); ++j) {
      expected[i].push_back(PredicateImplies(preds[i], preds[j]));
    }
  }

  ImplicationCache cache;
  std::atomic<int> mismatches{0};
  auto worker = [&](unsigned salt) {
    // Each thread walks the pair matrix in a different order.
    size_t n = preds.size();
    for (size_t step = 0; step < 4 * n * n; ++step) {
      size_t flat = (step * (salt * 2 + 1)) % (n * n);
      size_t i = flat / n, j = flat % n;
      if (cache.Implies(preds[i], preds[j]) != expected[i][j]) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ImplicationCacheTest, EvaluatorDecisionsIdenticalAcrossThreadCounts) {
  // End to end: the parallel, cached optimizer must reach bit-identical
  // compliance decisions at every thread count, cache on or off.
  tpch::TpchConfig config;
  config.scale_factor = 10;
  auto catalog = tpch::BuildCatalog(config);
  ASSERT_TRUE(catalog.ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  WorkloadProperties properties = TpchWorkloadProperties();
  PolicyGeneratorConfig pconfig;
  pconfig.template_name = "CRA";
  pconfig.count = 120;
  pconfig.seed = 99;
  // A fresh catalog per optimizer run: the catalog's evaluation memo
  // would otherwise answer a second run's evaluations without any
  // implication test, and the work counters below compare cold runs.
  auto fresh_policies = [&] {
    auto policies = std::make_unique<PolicyCatalog>(&*catalog);
    PolicyExpressionGenerator pgen(&*catalog, &properties, pconfig);
    EXPECT_TRUE(pgen.InstallInto(policies.get()).ok());
    return policies;
  };

  for (int q : {2, 3, 10}) {
    std::string sql = *tpch::Query(q);
    OptimizerOptions ref_opts;
    ref_opts.threads = 1;
    ref_opts.implication_cache = false;
    auto ref_policies = fresh_policies();
    QueryOptimizer reference(&*catalog, ref_policies.get(), &net, ref_opts);
    auto ref = reference.Optimize(sql);
    ASSERT_TRUE(ref.ok());

    for (int threads : {1, 2, 4, 8}) {
      OptimizerOptions o;
      o.threads = threads;
      o.implication_cache = true;
      auto policies = fresh_policies();
      QueryOptimizer par(&*catalog, policies.get(), &net, o);
      auto got = par.Optimize(sql);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(ref->result_location, got->result_location)
          << "Q" << q << " threads=" << threads;
      EXPECT_EQ(ref->compliant, got->compliant);
      EXPECT_DOUBLE_EQ(ref->phase1_cost, got->phase1_cost);
      EXPECT_DOUBLE_EQ(ref->comm_cost_ms, got->comm_cost_ms);
      // Same amount of policy-evaluation work, however it was scheduled.
      EXPECT_EQ(ref->stats.policy.implication_tests,
                got->stats.policy.implication_tests);
      EXPECT_EQ(ref->stats.policy.eta, got->stats.policy.eta);
    }
  }
}

}  // namespace
}  // namespace cgq
