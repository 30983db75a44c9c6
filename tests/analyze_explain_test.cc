#include <gtest/gtest.h>

#include <filesystem>

#include "common/trace.h"
#include "core/engine.h"
#include "core/explain.h"
#include "exec/analyze.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("p").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("q").ok());
    TableDef t;
    t.name = "data";
    t.schema = Schema({{"k", DataType::kInt64},
                       {"v", DataType::kDouble},
                       {"s", DataType::kString}});
    t.fragments = {TableFragment{0, 0.5}, TableFragment{1, 0.5}};
    t.stats.row_count = 999;  // stale on purpose
    ASSERT_TRUE(catalog.AddTable(t).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(2));
    engine_->store().Put(
        0, "data",
        {{Value::Int64(1), Value::Double(1.5), Value::String("aa")},
         {Value::Int64(2), Value::Double(2.5), Value::String("bb")},
         {Value::Int64(2), Value::Null(), Value::String("aa")}});
    engine_->store().Put(
        1, "data",
        {{Value::Int64(3), Value::Double(-4.0), Value::String("cccc")}});
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(AnalyzeTest, RowCountAndFractions) {
  ASSERT_TRUE(AnalyzeAll(engine_->store(), &engine_->catalog()).ok());
  auto t = engine_->catalog().GetTable("data");
  EXPECT_DOUBLE_EQ((*t)->stats.row_count, 4);
  ASSERT_EQ((*t)->fragments.size(), 2u);
  EXPECT_DOUBLE_EQ((*t)->fragments[0].row_fraction, 0.75);
  EXPECT_DOUBLE_EQ((*t)->fragments[1].row_fraction, 0.25);
}

TEST_F(AnalyzeTest, DistinctCountsAreExact) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("k")->distinct_count, 3);
  // v: {1.5, 2.5, NULL, -4.0} -> 4 distinct incl. NULL.
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("v")->distinct_count, 4);
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("s")->distinct_count, 3);
}

TEST_F(AnalyzeTest, MinMaxFromData) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  const ColumnStats* v = (*t)->stats.FindColumn("v");
  EXPECT_DOUBLE_EQ(*v->min, -4.0);
  EXPECT_DOUBLE_EQ(*v->max, 2.5);
  // Strings have no numeric bounds.
  EXPECT_FALSE((*t)->stats.FindColumn("s")->min.has_value());
}

TEST_F(AnalyzeTest, AverageWidth) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  // s widths: "aa"=6, "bb"=6, "aa"=6, "cccc"=8 -> avg 6.5.
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("s")->avg_width, 6.5);
}

TEST_F(AnalyzeTest, FailsWithoutLoadedFragment) {
  Catalog& catalog = engine_->catalog();
  TableDef t;
  t.name = "empty";
  t.schema = Schema({{"x", DataType::kInt64}});
  t.fragments = {TableFragment{0, 1.0}};
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_FALSE(AnalyzeTable(engine_->store(), "empty", &catalog).ok());
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("n").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("e").ok());
    TableDef c;
    c.name = "cust";
    c.schema = Schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"secret", DataType::kString}});
    c.fragments = {TableFragment{0, 1.0}};
    c.stats.row_count = 100;
    ASSERT_TRUE(catalog.AddTable(c).ok());
    TableDef o;
    o.name = "ord";
    o.schema = Schema({{"cust_id", DataType::kInt64},
                       {"total", DataType::kDouble}});
    o.fragments = {TableFragment{1, 1.0}};
    o.stats.row_count = 1000;
    ASSERT_TRUE(catalog.AddTable(o).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(2));
    ASSERT_TRUE(engine_->AddPolicy("n", "ship id, name from cust to e").ok());
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(ExplainTest, NamesGrantingExpression) {
  auto r = engine_->Optimize(
      "SELECT c.name, o.total FROM cust c, ord o WHERE c.id = o.cust_id");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->compliant);
  PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
  std::string report = ExplainCompliance(*r->plan, evaluator,
                                         engine_->catalog().locations());
  EXPECT_NE(report.find("SHIP n -> e"), std::string::npos) << report;
  EXPECT_NE(report.find("ship id, name from cust to e"), std::string::npos)
      << report;
  EXPECT_NE(report.find("cust.name"), std::string::npos) << report;
  EXPECT_EQ(report.find("VIOLATION"), std::string::npos) << report;
}

TEST_F(ExplainTest, LocalPlanSaysSo) {
  auto r = engine_->Optimize("SELECT c.secret FROM cust c");
  ASSERT_TRUE(r.ok());
  PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
  std::string report = ExplainCompliance(*r->plan, evaluator,
                                         engine_->catalog().locations());
  EXPECT_NE(report.find("fully local"), std::string::npos) << report;
}

TEST_F(ExplainTest, ViolationIsFlaggedInProvenance) {
  // Force a non-compliant plan through the traditional optimizer.
  OptimizerOptions opts;
  opts.compliant = false;
  auto r = engine_->Optimize(
      "SELECT c.secret, o.total FROM cust c, ord o WHERE c.id = o.cust_id",
      opts);
  ASSERT_TRUE(r.ok());
  if (!r->compliant) {
    PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
    std::string report = ExplainCompliance(*r->plan, evaluator,
                                           engine_->catalog().locations());
    EXPECT_NE(report.find("VIOLATION"), std::string::npos) << report;
  }
}

// A disk-mode fragment run of TPC-H Q3 decodes only the columns its
// scans' projections and filters read: the skipped column chunks show on
// the storage footer line and in the process registry.
TEST(ExplainAnalyzeStorage, DiskFragmentRunSkipsColumns) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::BuildCatalog(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  Engine engine(std::move(*catalog), NetworkModel::DefaultGeo(5));
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &engine.policies()).ok());
  ASSERT_TRUE(
      tpch::GenerateData(engine.catalog(), config, &engine.store()).ok());
  auto sql = tpch::Query(3);
  ASSERT_TRUE(sql.ok());
  engine.set_exec_mode(ExecMode::kFragment);
  auto memory = engine.Run(*sql);
  ASSERT_TRUE(memory.ok()) << memory.status();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgq-explain-columns")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(engine.store().EnableDiskStorage(dir).ok());
  const int64_t skipped_before =
      MetricsRegistry::Value("storage.columns_skipped");
  auto disk = engine.Run(*sql);
  ASSERT_TRUE(disk.ok()) << disk.status();
  const ExecMetrics& m = disk->metrics;
  EXPECT_GT(m.storage_blocks_read, 0);
  EXPECT_GT(m.storage_columns_read, 0);
  EXPECT_GT(m.storage_columns_skipped, 0);
  ASSERT_EQ(disk->rows.size(), memory->rows.size());
  for (size_t i = 0; i < disk->rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(disk->rows[i], memory->rows[i])) << i;
  }
  const std::string footer = FormatExecMetrics(m, nullptr);
  EXPECT_NE(footer.find(std::to_string(m.storage_columns_skipped) +
                        " skipped"),
            std::string::npos)
      << footer;
#ifdef CGQ_TRACING
  EXPECT_EQ(MetricsRegistry::Value("storage.columns_skipped") -
                skipped_before,
            m.storage_columns_skipped);
#else
  (void)skipped_before;
#endif
  ASSERT_TRUE(engine.store().DisableDiskStorage().ok());
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace cgq
