#ifndef CGQ_CORE_POLICY_REFERENCE_H_
#define CGQ_CORE_POLICY_REFERENCE_H_

#include <vector>

#include "catalog/catalog.h"
#include "core/policy.h"
#include "core/policy_evaluator.h"
#include "plan/summary.h"

namespace cgq {

/// Reference oracle for PolicyEvaluator::Evaluate: Algorithm 1 (§5) written
/// out literally, for tests and benches to compare the production path
/// against. No engine path calls it.
///
/// It walks *every* installed expression at `db` — active (For) and
/// absorbed (Absorbed) alike — and decides relevance and the grant cases
/// with string attribute comparisons and implication with plain
/// PredicateImplies. It uses none of the production machinery: no index or
/// bucket prunes, no column masks, no ImplicationCache, no
/// PremiseConstraints, no evaluation memo, no thread pool. So it is slow
/// (linear in the catalog, one uncached implication test per relevant
/// expression and instance) and simple enough to check by reading.
///
/// Returns 𝒜(q, D, P_D). When `grants` is non-null it receives one entry
/// per disclosed (attribute, aggregate fn) pair, in the order Evaluate
/// reports them, with `granted_by` listing every granting expression
/// (absorbed ones included, so a superset of Evaluate's list).
LocationSet ReferenceEvaluate(const Catalog& catalog,
                              const PolicyCatalog& policies,
                              const QuerySummary& summary, LocationId db,
                              std::vector<AttrGrant>* grants = nullptr);

}  // namespace cgq

#endif  // CGQ_CORE_POLICY_REFERENCE_H_
