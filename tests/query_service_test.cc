#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sql/parser.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

std::vector<std::string> RenderedRows(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

// A non-equi join the planner can only run as a nested loop over ~36M
// pairs, reduced by COUNT so no rows accumulate: busy for far longer than
// any admission window in this file, yet stops at the next cancellation
// point when asked.
constexpr const char* kSlowSql =
    "SELECT COUNT(*) AS pairs FROM lineitem l, orders o "
    "WHERE l.orderkey < o.orderkey";

void PollUntilInflight(QueryService& service, int64_t n) {
  while (service.stats().inflight < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.scale_factor = 0.002;
    auto catalog = tpch::BuildCatalog(config_);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    engine_ = std::make_unique<Engine>(std::move(*catalog),
                                       NetworkModel::DefaultGeo(5));
    ASSERT_TRUE(
        tpch::InstallUnrestrictedPolicies(&engine_->policies()).ok());
    ASSERT_TRUE(
        tpch::GenerateData(engine_->catalog(), config_, &engine_->store())
            .ok());
  }

  tpch::TpchConfig config_;
  std::unique_ptr<Engine> engine_;
};

// N concurrent workload queries return byte-identical rows and identical
// ship metrics to a sequential run, on both backends; the second
// (concurrent) round is served from the plan cache.
TEST_F(QueryServiceTest, ConcurrentMatchesSequentialOnBothBackends) {
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(ExecModeToString(mode));
    engine_->set_exec_mode(mode);

    // Sequential cold baseline, before any cache exists.
    std::vector<std::string> sqls;
    std::vector<QueryResult> baseline;
    for (int q : tpch::QueryNumbers()) {
      auto sql = tpch::Query(q);
      ASSERT_TRUE(sql.ok());
      auto r = engine_->Run(*sql);
      ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status();
      sqls.push_back(*sql);
      baseline.push_back(std::move(*r));
    }

    ServiceOptions sopts;
    sopts.max_inflight = 4;
    QueryService service(engine_.get(), sopts);
    ASSERT_NE(service.plan_cache(), nullptr);

    // Two waves: the first fills the cache, the second hits it. Within a
    // wave all queries are in flight together.
    for (int wave = 0; wave < 2; ++wave) {
      SCOPED_TRACE("wave " + std::to_string(wave));
      QueryService::Session session = service.OpenSession();
      std::vector<QueryService::TicketId> tickets;
      for (const std::string& sql : sqls) {
        auto t = session.Submit(sql);
        ASSERT_TRUE(t.ok()) << t.status();
        tickets.push_back(*t);
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        auto r = session.Wait(tickets[i]);
        ASSERT_TRUE(r.ok()) << sqls[i] << ": " << r.status();
        EXPECT_EQ(RenderedRows(*r), RenderedRows(baseline[i])) << sqls[i];
        EXPECT_EQ(r->column_names, baseline[i].column_names);
        // Cached and cold plans make the same shipping decisions.
        EXPECT_EQ(r->metrics.ships, baseline[i].metrics.ships);
        EXPECT_EQ(r->metrics.rows_shipped, baseline[i].metrics.rows_shipped);
        EXPECT_DOUBLE_EQ(r->metrics.bytes_shipped,
                         baseline[i].metrics.bytes_shipped);
        if (wave == 1) {
          EXPECT_TRUE(r->opt_stats.cache_hit) << sqls[i];
        }
      }
    }
    EXPECT_GE(service.plan_cache()->stats().hits,
              static_cast<int64_t>(sqls.size()));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, static_cast<int64_t>(2 * sqls.size()));
    EXPECT_EQ(stats.completed, static_cast<int64_t>(2 * sqls.size()));
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.inflight, 0);
    EXPECT_EQ(stats.queued, 0);
  }
}

TEST_F(QueryServiceTest, QueueWaitTimesOutWithResourceExhausted) {
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_timeout_ms = 50;
  QueryService service(engine_.get(), sopts);
  QueryService::Session session = service.OpenSession();

  auto slow = session.Submit(kSlowSql);
  ASSERT_TRUE(slow.ok()) << slow.status();
  PollUntilInflight(service, 1);

  // The only worker is busy; this one's queue wait exceeds the bound.
  auto fast = session.Submit("SELECT name FROM region");
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto r = session.Wait(*fast);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  EXPECT_EQ(service.stats().timed_out, 1);

  ASSERT_TRUE(session.Cancel(*slow).ok());
  auto sr = session.Wait(*slow);
  ASSERT_FALSE(sr.ok());
  EXPECT_TRUE(sr.status().IsCancelled()) << sr.status();
}

// "regionkey = 1 OR regionkey = 1 OR ..." with `links` ORs.
std::string OrChainSql(int links) {
  std::string sql = "SELECT name FROM region WHERE regionkey = 1";
  for (int i = 0; i < links; ++i) sql += " OR regionkey = 1";
  return sql;
}

// Any tenant reaches the parser through Submit; a WHERE clause of 10^5
// nested parentheses, or of a flat chain of 10^5 terms (a left-deep tree
// just as deep), must come back as a typed error, and the service must
// keep serving afterwards.
TEST_F(QueryServiceTest, DeeplyNestedQueryIsInvalidArgument) {
  QueryService service(engine_.get(), ServiceOptions());
  QueryService::Session session = service.OpenSession();
  constexpr int kDepth = 100000;
  for (const std::string& sql :
       {"SELECT name FROM region WHERE " + std::string(kDepth, '(') +
            "regionkey = 1" + std::string(kDepth, ')'),
        OrChainSql(kDepth - 1)}) {
    auto ticket = session.Submit(sql);
    if (ticket.ok()) {
      auto r = session.Wait(*ticket);
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
    } else {
      EXPECT_TRUE(ticket.status().IsInvalidArgument()) << ticket.status();
    }
  }
  auto after = session.Run("SELECT name FROM region");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rows.size(), 5u);
}

TEST_F(QueryServiceTest, LongFlatOrChainsStillPlan) {
  auto planned = engine_->Optimize(OrChainSql(1000 - 1));
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_TRUE(planned->compliant);

  // At the chain bound itself, on a service worker thread: parse, bind,
  // optimize, re-check and execute all walk the deepest tree allowed.
  QueryService service(engine_.get(), ServiceOptions());
  QueryService::Session session = service.OpenSession();
  auto r = session.Run(OrChainSql(kMaxChainLinks));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(QueryServiceTest, FullQueueRejectsSubmit) {
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_capacity = 1;
  sopts.queue_timeout_ms = 0;  // isolate the rejection path
  QueryService service(engine_.get(), sopts);
  QueryService::Session session = service.OpenSession();

  auto running = session.Submit(kSlowSql);
  ASSERT_TRUE(running.ok()) << running.status();
  PollUntilInflight(service, 1);  // dequeued: the queue is empty again

  auto queued = session.Submit(kSlowSql);
  ASSERT_TRUE(queued.ok()) << queued.status();

  auto rejected = session.Submit("SELECT name FROM region");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted()) << rejected.status();
  EXPECT_EQ(service.stats().rejected, 1);

  // A queued query cancels instantly, without ever running.
  ASSERT_TRUE(session.Cancel(*queued).ok());
  auto qr = session.Wait(*queued);
  ASSERT_FALSE(qr.ok());
  EXPECT_TRUE(qr.status().IsCancelled()) << qr.status();

  ASSERT_TRUE(session.Cancel(*running).ok());
  auto rr = session.Wait(*running);
  ASSERT_FALSE(rr.ok());
  EXPECT_TRUE(rr.status().IsCancelled()) << rr.status();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST_F(QueryServiceTest, CancelStopsARunningQueryMidExecution) {
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(ExecModeToString(mode));
    engine_->set_exec_mode(mode);
    QueryService service(engine_.get());
    QueryService::Session session = service.OpenSession();

    auto ticket = session.Submit(kSlowSql);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    PollUntilInflight(service, 1);

    ASSERT_TRUE(session.Cancel(*ticket).ok());
    auto r = session.Wait(*ticket);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCancelled()) << r.status();
    EXPECT_EQ(service.stats().cancelled, 1);
    // The worker is free again: the service still runs queries.
    auto after = session.Run("SELECT name FROM region");
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(after->rows.size(), 5u);
  }
}

TEST_F(QueryServiceTest, TicketsAreSingleUse) {
  QueryService service(engine_.get());
  QueryService::Session session = service.OpenSession();
  auto ticket = session.Submit("SELECT name FROM region");
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(session.Wait(*ticket).ok());
  EXPECT_TRUE(session.Wait(*ticket).status().IsNotFound());
  EXPECT_TRUE(session.Cancel(*ticket).IsNotFound());
  EXPECT_TRUE(session.Wait(999999).status().IsNotFound());
}

TEST_F(QueryServiceTest, FailedQueriesAreCountedNotFatal) {
  QueryService service(engine_.get());
  QueryService::Session session = service.OpenSession();
  auto r = session.Run("SELEC name FROM region");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(service.stats().failed, 1);
  EXPECT_TRUE(session.Run("SELECT name FROM region").ok());
}

// Dynamic policy updates through the service: a policy drop makes the
// affected query non-compliant for new submissions (cached plan
// included), and re-granting restores it.
TEST_F(QueryServiceTest, PolicyUpdatesApplyToSubsequentQueries) {
  QueryService service(engine_.get());
  QueryService::Session session = service.OpenSession();
  // Pin the result away from lineitem's home so the query needs the
  // lineitem policy to ship.
  session.optimizer_options().required_result = LocationSet::Single(0);
  const std::string sql = "SELECT orderkey FROM lineitem WHERE quantity > 49";

  auto cold = session.Run(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = session.Run(sql);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->opt_stats.cache_hit);
  EXPECT_EQ(RenderedRows(*warm), RenderedRows(*cold));

  // Unrestricted policies install one grant per table at its home;
  // lineitem lives at l4 (location 3).
  ASSERT_EQ(engine_->policies().For(3).size(), 1u);
  int64_t lineitem_policy = engine_->policies().For(3)[0].id;
  ASSERT_TRUE(service.RemovePolicy(lineitem_policy).ok());

  auto denied = session.Run(sql);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsNonCompliant()) << denied.status();

  ASSERT_TRUE(service.AddPolicy("l4", "ship * from lineitem to *").ok());
  auto regranted = session.Run(sql);
  ASSERT_TRUE(regranted.ok()) << regranted.status();
  EXPECT_EQ(RenderedRows(*regranted), RenderedRows(*cold));
}

// Destroying a service with queued and running work cancels everything
// and leaves the engine cache-free.
TEST_F(QueryServiceTest, ShutdownCancelsOutstandingWork) {
  {
    ServiceOptions sopts;
    sopts.max_inflight = 1;
    QueryService service(engine_.get(), sopts);
    QueryService::Session session = service.OpenSession();
    ASSERT_TRUE(session.Submit(kSlowSql).ok());
    ASSERT_TRUE(session.Submit(kSlowSql).ok());
    PollUntilInflight(service, 1);
  }
  EXPECT_EQ(engine_->plan_cache(), nullptr);
  EXPECT_TRUE(engine_->Run("SELECT name FROM region").ok());
}

}  // namespace
}  // namespace cgq
