#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/query_generator.h"

namespace cgq {
namespace {

// Shared fixture state: generating TPC-H data once keeps the sweep fast.
struct SharedTpch {
  SharedTpch() {
    config.scale_factor = 0.002;
    catalog = std::make_unique<Catalog>(*tpch::BuildCatalog(config));
    net = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    store = std::make_unique<TableStore>();
    CGQ_CHECK(tpch::GenerateData(*catalog, config, store.get()).ok());
  }
  tpch::TpchConfig config;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<TableStore> store;
};

SharedTpch& Shared() {
  static SharedTpch* s = new SharedTpch();
  return *s;
}

// FNV-1a over the result's column names and rows, the same canonical text
// the benchmarks hash: order-sensitive, type-sensitive (int64 1 and
// double 1.0 print differently), NULL-tagged.
uint64_t Digest(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const std::string& name : r.column_names) mix(name + ";");
  for (const Row& row : r.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        mix("NULL|");
      } else if (v.is_double()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
        mix(buf);
      } else {
        mix(v.ToString() + "|");
      }
    }
    mix("\n");
  }
  return h;
}

Result<OptimizedQuery> Plan(const std::string& sql) {
  SharedTpch& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  OptimizerOptions opts;
  opts.compliant = false;  // plan shape only; policies are orthogonal here
  QueryOptimizer optimizer(shared.catalog.get(), &policies, shared.net.get(),
                           opts);
  return optimizer.Optimize(sql);
}

Result<QueryResult> RunQuery(const OptimizedQuery& q, ExecMode mode,
                        int batch_size, int threads) {
  SharedTpch& shared = Shared();
  ExecutorOptions opts;
  opts.mode = mode;
  opts.batch_size = batch_size;
  opts.threads = threads;
  Executor executor(shared.store.get(), shared.net.get(), opts);
  return executor.Execute(q);
}

// The validation contract (DESIGN.md §12): identical digest (row order,
// value types, NULLs) and identical ship accounting, for every
// configuration of the vectorized backend.
void ExpectEquivalent(const OptimizedQuery& q, const std::string& label) {
  auto row = RunQuery(q, ExecMode::kRow, 1024, 1);
  ASSERT_TRUE(row.ok()) << label << ": " << row.status();
  const uint64_t row_digest = Digest(*row);
  for (int batch_size : {1, 7, 1024}) {
    for (int threads : {1, 4}) {
      auto vec = RunQuery(q, ExecMode::kVector, batch_size, threads);
      ASSERT_TRUE(vec.ok()) << label << ": " << vec.status();
      EXPECT_EQ(Digest(*vec), row_digest)
          << label << " batch=" << batch_size << " threads=" << threads;
      EXPECT_EQ(vec->metrics.ships, row->metrics.ships) << label;
      EXPECT_EQ(vec->metrics.rows_shipped, row->metrics.rows_shipped)
          << label;
      EXPECT_EQ(vec->metrics.bytes_shipped, row->metrics.bytes_shipped)
          << label;
    }
  }
}

// --- 12 TPC-H queries (core + extended) -------------------------------------

class VectorTpchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(VectorTpchEquivalence, MatchesRowBackend) {
  const int q = GetParam();
  auto plan = Plan(*tpch::Query(q));
  ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status();
  ExpectEquivalent(*plan, "Q" + std::to_string(q));
}

std::vector<int> AllTpchQueries() {
  std::vector<int> out = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) out.push_back(q);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, VectorTpchEquivalence,
                         ::testing::ValuesIn(AllTpchQueries()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// --- 12 generated ad-hoc queries --------------------------------------------

TEST(VectorAdhocEquivalence, MatchesRowBackend) {
  SharedTpch& shared = Shared();
  WorkloadProperties props = TpchWorkloadProperties();
  QueryGeneratorConfig qconfig;
  qconfig.seed = 20260809;
  AdhocQueryGenerator qgen(shared.catalog.get(), &props, qconfig);

  int verified = 0;
  for (int attempt = 0; attempt < 60 && verified < 12; ++attempt) {
    std::string sql = qgen.Next();
    auto plan = Plan(sql);
    if (!plan.ok()) continue;  // generator may exceed supported SQL
    ExpectEquivalent(*plan, sql);
    ++verified;
  }
  EXPECT_EQ(verified, 12) << "generator yielded too few plannable queries";
}

// --- NULL semantics ----------------------------------------------------------

// A small two-site engine whose data is riddled with NULLs: NULL filter
// keys, NULL join keys (must not match), NULL group keys (must group
// together), and one all-NULL column.
class VectorNullSemanticsTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Engine> MakeEngine() {
    Catalog catalog;
    (void)*catalog.mutable_locations().AddLocation("s1");
    (void)*catalog.mutable_locations().AddLocation("s2");
    TableDef events;
    events.name = "events";
    events.schema = Schema({{"id", DataType::kInt64},
                            {"kind", DataType::kString},
                            {"amount", DataType::kInt64},
                            {"ghost", DataType::kInt64}});
    events.fragments = {TableFragment{0, 1.0}};
    events.stats.row_count = 200;
    (void)catalog.AddTable(events);
    TableDef kinds;
    kinds.name = "kinds";
    kinds.schema = Schema({{"kind", DataType::kString},
                           {"weight", DataType::kInt64}});
    kinds.fragments = {TableFragment{1, 1.0}};
    kinds.stats.row_count = 4;
    (void)catalog.AddTable(kinds);

    auto engine = std::make_unique<Engine>(std::move(catalog),
                                           NetworkModel::DefaultGeo(2));
    (void)engine->AddPolicy("s1", "ship * from events to *");
    (void)engine->AddPolicy("s2", "ship * from kinds to *");
    const char* pool[] = {"click", "view", "buy"};
    for (int64_t i = 0; i < 200; ++i) {
      engine->store().Append(
          0, "events",
          {Value::Int64(i),
           i % 7 == 0 ? Value::Null() : Value::String(pool[i % 3]),
           i % 5 == 0 ? Value::Null() : Value::Int64(i % 97),
           Value::Null()});
    }
    engine->store().Put(1, "kinds",
                        {{Value::String("click"), Value::Int64(1)},
                         {Value::String("view"), Value::Int64(2)},
                         {Value::Null(), Value::Int64(99)},
                         {Value::String("buy"), Value::Int64(5)}});
    return engine;
  }

  void ExpectAgree(const char* sql) {
    auto engine = MakeEngine();
    engine->set_exec_mode(ExecMode::kRow);
    auto row = engine->Run(sql);
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
    for (int batch_size : {1, 7, 1024}) {
      engine->set_exec_mode(ExecMode::kVector);
      engine->default_exec_options().batch_size = batch_size;
      auto vec = engine->Run(sql);
      ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status();
      EXPECT_EQ(Digest(*vec), Digest(*row))
          << sql << " batch=" << batch_size;
    }
  }
};

TEST_F(VectorNullSemanticsTest, FilterDropsNullPredicates) {
  ExpectAgree("SELECT id, amount FROM events WHERE amount > 50");
}

TEST_F(VectorNullSemanticsTest, NullJoinKeysNeverMatch) {
  ExpectAgree(
      "SELECT e.id, k.weight FROM events e, kinds k "
      "WHERE e.kind = k.kind AND e.amount < 30");
}

TEST_F(VectorNullSemanticsTest, NullGroupKeysFormOneGroup) {
  ExpectAgree(
      "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
      "GROUP BY kind");
}

TEST_F(VectorNullSemanticsTest, AllNullColumnSurvivesProjectAndAggregate) {
  ExpectAgree("SELECT ghost, id FROM events WHERE id < 10");
  ExpectAgree("SELECT COUNT(*) AS n, SUM(ghost) AS s FROM events");
}

TEST_F(VectorNullSemanticsTest, DisjunctionUsesKleeneLogic) {
  ExpectAgree(
      "SELECT id FROM events WHERE amount > 90 OR kind = 'click'");
  ExpectAgree(
      "SELECT id FROM events WHERE amount > 90 OR kind = 'click' OR id < 3");
  ExpectAgree(
      "SELECT id FROM events WHERE (amount > 10 AND kind = 'click' AND "
      "id > 2) OR amount - id - 1 < 5");
}

// --- Randomized digest soak --------------------------------------------------

TEST(VectorDigestSoak, RandomSeedsAgreeWithRowBackend) {
  SharedTpch& shared = Shared();
  WorkloadProperties props = TpchWorkloadProperties();
  int verified = 0;
  for (uint64_t seed = 1; seed <= 40 && verified < 20; ++seed) {
    QueryGeneratorConfig qconfig;
    qconfig.seed = seed * 7919 + 1;
    AdhocQueryGenerator qgen(shared.catalog.get(), &props, qconfig);
    std::string sql = qgen.Next();
    auto plan = Plan(sql);
    if (!plan.ok()) continue;
    auto row = RunQuery(*plan, ExecMode::kRow, 1024, 1);
    auto vec = RunQuery(*plan, ExecMode::kVector, 1024, 1);
    ASSERT_TRUE(row.ok()) << sql;
    ASSERT_TRUE(vec.ok()) << sql;
    EXPECT_EQ(Digest(*vec), Digest(*row)) << "seed " << seed << ": " << sql;
    ++verified;
  }
  EXPECT_GE(verified, 10) << "soak exercised too few queries";
}

}  // namespace
}  // namespace cgq
