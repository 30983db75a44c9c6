#include "core/policy_reference.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "expr/implication.h"

namespace cgq {

namespace {

// One element of A_q: a base attribute and the aggregate function applied
// to it (kNoFn when disclosed un-aggregated). Ordered like Evaluate's
// pairs: by attribute, un-aggregated first, then by function.
constexpr int kNoFn = -1;
using Disclosed = std::pair<BaseAttr, int>;

// L_a, and the expressions that contributed to it.
struct Legal {
  LocationSet locs;
  std::vector<const PolicyExpression*> granted_by;
};

// P_q restricted to one relation instance: the conjuncts that reference
// only `alias` (or no column at all).
std::vector<ExprPtr> InstancePremise(const QuerySummary& summary,
                                     const std::string& alias) {
  std::vector<ExprPtr> premise;
  for (const ExprPtr& c : summary.predicate) {
    std::vector<const Expr*> refs;
    c->CollectColumnRefs(&refs);
    if (std::all_of(refs.begin(), refs.end(), [&](const Expr* r) {
          return r->qualifier() == alias;
        })) {
      premise.push_back(c);
    }
  }
  return premise;
}

}  // namespace

LocationSet ReferenceEvaluate(const Catalog& catalog,
                              const PolicyCatalog& policies,
                              const QuerySummary& summary, LocationId db,
                              std::vector<AttrGrant>* grants) {
  // A_q: output attributes with the aggregate applied to them, plus the
  // attributes read by predicates and grouping, which are disclosed
  // un-aggregated (§4 Examples 1/2). L[a] collects L_a.
  std::map<Disclosed, Legal> L;
  for (const auto& [id, out] : summary.outputs) {
    for (const BaseAttr& b : out.bases) {
      L[{b, out.fn ? static_cast<int>(*out.fn) : kNoFn}];
    }
  }
  for (const ExprPtr& c : summary.predicate) {
    std::vector<BaseAttr> bases;
    c->CollectBaseAttrs(&bases);
    for (const BaseAttr& b : bases) L[{b, kNoFn}];
  }
  for (const BaseAttr& g : summary.group_attrs) L[{g, kNoFn}];

  // P_D: every installed expression, absorbed ones included.
  std::vector<const PolicyExpression*> installed;
  for (const PolicyExpression& e : policies.For(db)) installed.push_back(&e);
  for (const auto& a : policies.Absorbed(db)) installed.push_back(&a.expr);

  for (const PolicyExpression* e : installed) {
    // Line 3, first half: A_q ∩ (A_e ∪ G_e) ≠ ∅ (grouping attributes only
    // count when both the query and e aggregate).
    bool relevant = false;
    for (const auto& [a, legal] : L) {
      if (a.first.table != e->table) continue;
      relevant |= e->HasShipAttribute(a.first.column);
      relevant |= summary.is_aggregate && e->is_aggregate() &&
                  e->HasGroupAttribute(a.first.column);
    }
    if (!relevant) continue;

    // Line 3, second half: P_q ⟹ P_e, for every instance of e's table.
    bool any_instance = false;
    bool implied = true;
    for (const auto& [alias, table] : summary.alias_tables) {
      if (table != e->table) continue;
      any_instance = true;
      if (!PredicateImplies(InstancePremise(summary, alias), e->predicate)) {
        implied = false;
        break;
      }
    }
    if (!any_instance || !implied) continue;

    // Line 4: the three cases of §5. A basic expression grants its ship
    // attributes at any aggregation level (cases 1 and 2). An aggregate
    // expression only covers aggregate queries whose grouping on e's table
    // is within G_e (case 3); it then grants its grouping attributes
    // un-aggregated and its ship attributes under its allowed functions.
    bool groups_within = summary.is_aggregate;
    for (const BaseAttr& g : summary.group_attrs) {
      if (g.table == e->table && !e->HasGroupAttribute(g.column)) {
        groups_within = false;
      }
    }
    for (auto& [a, legal] : L) {
      if (a.first.table != e->table) continue;
      const std::string& column = a.first.column;
      bool grant = false;
      if (!e->is_aggregate()) {
        grant = e->HasShipAttribute(column);
      } else if (groups_within) {
        grant = a.second == kNoFn
                    ? e->HasGroupAttribute(column)
                    : e->HasShipAttribute(column) &&
                          e->AllowsAggFn(static_cast<AggFn>(a.second));
      }
      if (!grant) continue;
      legal.locs = legal.locs.Union(e->to);
      legal.granted_by.push_back(e);
    }
  }

  // Line 5: ∩ over a ∈ A_q of L_a (∅ when nothing is disclosed).
  LocationSet result = L.empty() ? LocationSet() : catalog.locations().All();
  for (const auto& [a, legal] : L) result = result.Intersect(legal.locs);

  if (grants != nullptr) {
    grants->clear();
    for (auto& [a, legal] : L) {
      AttrGrant grant;
      grant.base = a.first;
      if (a.second != kNoFn) grant.fn = static_cast<AggFn>(a.second);
      grant.granted = legal.locs;
      grant.granted_by = std::move(legal.granted_by);
      grants->push_back(std::move(grant));
    }
  }
  return result;
}

}  // namespace cgq
