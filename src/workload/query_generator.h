#ifndef CGQ_WORKLOAD_QUERY_GENERATOR_H_
#define CGQ_WORKLOAD_QUERY_GENERATOR_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/rng.h"
#include "plan/summary.h"
#include "workload/properties.h"

namespace cgq {

/// Configuration of the ad-hoc query generator (§7.2): random PK-FK join
/// queries spanning two or more locations; 55% reference two tables, 35%
/// three, 10% four; ~30% aggregate; ~4 output columns; 3-4 predicates.
struct QueryGeneratorConfig {
  uint64_t seed = 7;
  double two_table_fraction = 0.55;
  double three_table_fraction = 0.35;
  double aggregate_fraction = 0.30;
  int min_predicates = 3;
  int max_predicates = 4;
  int output_columns = 4;
};

/// Generates random ad-hoc SQL queries over a geo-distributed schema,
/// walking the PK-FK join graph so every query is connected and spans at
/// least two locations.
class AdhocQueryGenerator {
 public:
  AdhocQueryGenerator(const Catalog* catalog,
                      const WorkloadProperties* properties,
                      QueryGeneratorConfig config)
      : catalog_(catalog),
        properties_(properties),
        config_(config),
        rng_(config.seed) {}

  /// Next random query as SQL text. Deterministic given the seed.
  std::string Next();

 private:
  int PickTableCount();

  const Catalog* catalog_;
  const WorkloadProperties* properties_;
  QueryGeneratorConfig config_;
  Rng rng_;
};

/// The summary of every single-database group of `sql`'s explored memo:
/// the subqueries whose legal ship sets policy evaluation computes (AR4).
/// Tests and benches compare PolicyEvaluator::Evaluate against
/// ReferenceEvaluate on these (summary, db) pairs.
Result<std::vector<QuerySummary>> SingleDatabaseSummaries(
    const Catalog& catalog, const std::string& sql);

}  // namespace cgq

#endif  // CGQ_WORKLOAD_QUERY_GENERATOR_H_
