#ifndef CGQ_CORE_POLICY_LINT_H_
#define CGQ_CORE_POLICY_LINT_H_

#include <string>
#include <vector>

#include "core/policy.h"

namespace cgq {

/// One lint finding about the installed policy catalog.
struct PolicyLintFinding {
  enum class Severity { kInfo, kWarning };
  Severity severity = Severity::kInfo;
  std::string location;  ///< location whose catalog entry is concerned
  std::string message;

  std::string ToString() const {
    return std::string(severity == Severity::kWarning ? "[warn] " :
                                                        "[info] ") +
           location + ": " + message;
  }
};

/// Static analysis of a policy catalog, for data officers (offline step of
/// Fig. 2). Reports:
///  - attributes of locally stored tables with no egress expression at all
///    (they can never leave — often intended, surfaced as info);
///  - expressions registered at a location that stores no fragment of
///    their table (they will never be consulted — warning);
///  - expressions that only permit shipping to the data's own location
///    (no-ops — info);
///  - basic expressions fully subsumed by another basic expression on the
///    same table (attributes ⊆, locations ⊆, and the subsumer's condition
///    is implied by the subsumee's — redundant, info), and expressions
///    the catalog absorbed into a decision-safe superset (same wording,
///    naming the absorber's id).
std::vector<PolicyLintFinding> LintPolicies(const Catalog& catalog,
                                            const PolicyCatalog& policies);

}  // namespace cgq

#endif  // CGQ_CORE_POLICY_LINT_H_
