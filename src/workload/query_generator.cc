#include "workload/query_generator.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "optimizer/cardinality.h"
#include "optimizer/memo.h"
#include "plan/planner_context.h"
#include "plan/query_planner.h"
#include "sql/parser.h"
#include "types/date.h"

namespace cgq {

namespace {

using PK = ColumnProperty::PredicateKind;

std::string FormatLiteral(const ColumnProperty& col, double v) {
  switch (col.predicate) {
    case PK::kIntRange:
      return std::to_string(static_cast<int64_t>(v));
    case PK::kDoubleRange: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      return buf;
    }
    case PK::kDateRange:
      return "DATE '" + FormatDate(static_cast<int64_t>(v)) + "'";
    default:
      return std::to_string(v);
  }
}

}  // namespace

int AdhocQueryGenerator::PickTableCount() {
  double r = rng_.NextDouble();
  if (r < config_.two_table_fraction) return 2;
  if (r < config_.two_table_fraction + config_.three_table_fraction) return 3;
  return 4;
}

std::string AdhocQueryGenerator::Next() {
  // Choose the table count once: retries (e.g. same-location table pairs)
  // must not skew the 55/35/10 distribution.
  const int want = PickTableCount();
  for (int attempt = 0; attempt < 100; ++attempt) {

    // Random connected subgraph of the PK-FK graph.
    std::vector<std::string> tables;
    std::vector<const JoinEdge*> used_edges;
    {
      const JoinEdge& first = properties_->edges[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(properties_->edges.size()) -
                              1))];
      tables = {first.table1, first.table2};
      used_edges = {&first};
      while (static_cast<int>(tables.size()) < want) {
        std::vector<const JoinEdge*> candidates;
        for (const JoinEdge& e : properties_->edges) {
          bool has1 = std::find(tables.begin(), tables.end(), e.table1) !=
                      tables.end();
          bool has2 = std::find(tables.begin(), tables.end(), e.table2) !=
                      tables.end();
          if (has1 != has2) candidates.push_back(&e);
        }
        if (candidates.empty()) break;
        const JoinEdge* e = rng_.Pick(candidates);
        used_edges.push_back(e);
        tables.push_back(std::find(tables.begin(), tables.end(),
                                   e->table1) == tables.end()
                             ? e->table1
                             : e->table2);
      }
    }
    if (static_cast<int>(tables.size()) < 2) continue;

    // Must span >= 2 locations.
    std::set<LocationId> locations;
    for (const std::string& t : tables) {
      auto def = catalog_->GetTable(t);
      if (!def.ok()) continue;
      for (LocationId l : (*def)->LocationsOf().ToVector()) {
        locations.insert(l);
      }
    }
    if (locations.size() < 2) continue;

    bool aggregate = rng_.Bernoulli(config_.aggregate_fraction);

    // Candidate columns of the chosen tables.
    std::vector<const ColumnProperty*> in_scope;
    for (const ColumnProperty& c : properties_->columns) {
      if (std::find(tables.begin(), tables.end(), c.table) != tables.end()) {
        in_scope.push_back(&c);
      }
    }
    if (in_scope.empty()) continue;

    // Output columns.
    std::vector<std::string> select_items;
    std::vector<std::string> group_by;
    if (aggregate) {
      std::vector<const ColumnProperty*> measures, keys;
      for (const ColumnProperty* c : in_scope) {
        if (c->aggregatable) measures.push_back(c);
        if (c->groupable) keys.push_back(c);
      }
      if (measures.empty() || keys.empty()) continue;
      int num_keys = static_cast<int>(rng_.Uniform(1, 2));
      for (size_t i : rng_.SampleIndices(keys.size(),
                                         static_cast<size_t>(num_keys))) {
        std::string col = keys[i]->table + "." + keys[i]->column;
        if (std::find(group_by.begin(), group_by.end(), col) ==
            group_by.end()) {
          group_by.push_back(col);
          select_items.push_back(col);
        }
      }
      static const char* kFns[] = {"SUM", "AVG", "MIN", "MAX"};
      int num_aggs = static_cast<int>(rng_.Uniform(1, 2));
      for (size_t i :
           rng_.SampleIndices(measures.size(), static_cast<size_t>(num_aggs))) {
        select_items.push_back(
            std::string(kFns[rng_.Uniform(0, 3)]) + "(" +
            measures[i]->table + "." + measures[i]->column + ") AS agg" +
            std::to_string(select_items.size()));
      }
    } else {
      size_t want_cols = static_cast<size_t>(config_.output_columns);
      for (size_t i : rng_.SampleIndices(in_scope.size(), want_cols)) {
        select_items.push_back(in_scope[i]->table + "." +
                               in_scope[i]->column);
      }
    }
    if (select_items.empty()) continue;

    // Join predicates from the used edges.
    std::vector<std::string> conjuncts;
    for (const JoinEdge* e : used_edges) {
      conjuncts.push_back(e->table1 + "." + e->column1 + " = " + e->table2 +
                          "." + e->column2);
    }

    // Filter predicates.
    std::vector<const ColumnProperty*> filterable;
    for (const ColumnProperty* c : in_scope) {
      if (c->predicate != PK::kNone) filterable.push_back(c);
    }
    int want_preds = static_cast<int>(
        rng_.Uniform(config_.min_predicates, config_.max_predicates));
    for (size_t i : rng_.SampleIndices(filterable.size(),
                                       static_cast<size_t>(want_preds))) {
      const ColumnProperty& c = *filterable[i];
      std::string ref = c.table + "." + c.column;
      if (c.predicate == PK::kCategorical) {
        conjuncts.push_back(ref + " = '" + rng_.Pick(c.categories) + "'");
      } else {
        double span = c.max - c.min;
        double lo = c.min + rng_.NextDouble() * span * 0.6;
        switch (rng_.Uniform(0, 2)) {
          case 0:
            conjuncts.push_back(ref + " >= " + FormatLiteral(c, lo));
            break;
          case 1:
            conjuncts.push_back(ref + " < " +
                                FormatLiteral(c, lo + span * 0.3));
            break;
          default:
            conjuncts.push_back(ref + " BETWEEN " + FormatLiteral(c, lo) +
                                " AND " +
                                FormatLiteral(c, lo + span * 0.3));
            break;
        }
      }
    }

    std::string sql = "SELECT " + Join(select_items, ", ") + " FROM " +
                      Join(tables, ", ");
    if (!conjuncts.empty()) sql += " WHERE " + Join(conjuncts, " AND ");
    if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
    return sql;
  }
  // Pathological schema; return a trivial query rather than looping.
  return "SELECT nation.name FROM nation, region "
         "WHERE nation.regionkey = region.regionkey";
}

Result<std::vector<QuerySummary>> SingleDatabaseSummaries(
    const Catalog& catalog, const std::string& sql) {
  CGQ_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(sql));
  PlannerContext ctx(&catalog);
  CGQ_ASSIGN_OR_RETURN(LogicalPlan logical, PlanQueryAst(ast, &ctx));
  CardinalityEstimator estimator(&ctx);
  Memo memo(&ctx, &estimator);
  memo.InsertTree(*logical.root);
  memo.Explore();
  std::vector<QuerySummary> out;
  for (const Group& g : memo.groups()) {
    if (g.summary.IsSingleDatabaseBlock()) out.push_back(g.summary);
  }
  return out;
}

}  // namespace cgq
