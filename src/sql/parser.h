#ifndef CGQ_SQL_PARSER_H_
#define CGQ_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace cgq {

/// Parses the supported SQL subset:
///
///   SELECT item [, item]*
///   FROM table [AS alias] [, table [AS alias]]*
///   [WHERE predicate]
///   [GROUP BY column [, column]*]
///   [ORDER BY name [ASC|DESC] [, ...]]
///   [LIMIT n]
///
/// where `item` is a scalar expression or `SUM|AVG|MIN|MAX|COUNT(expr)`
/// (optionally `AS name`). Predicates support AND/OR/NOT, the six
/// comparisons, [NOT] LIKE, IN (literal list), BETWEEN (desugared), +-*/,
/// parentheses, and DATE 'YYYY-MM-DD' literals. No subqueries.
Result<QueryAst> ParseQuery(const std::string& sql);

/// Most binary-operator links (AND, OR, +, -, *, /) one statement may
/// hold. A flat `a OR b OR ...` chain parses iteratively but builds a
/// left-deep tree one level per link. The binder and both expression
/// evaluators fold such chains along their left spine (LeftSpine); the
/// optimizer's walkers (selectivity, summaries, printing, hashing) still
/// recurse once per level, so past this bound parsing returns
/// kInvalidArgument instead of one of them overflowing the stack. In an
/// unoptimized gcc ASan build, whose frames are largest, a service
/// worker's 8 MiB stack runs an 8,192-link chain end to end in the row,
/// fragment and vector executors and overflows at 16,384 (in selectivity
/// estimation): the bound keeps an 8x margin.
inline constexpr int kMaxChainLinks = 1024;

/// Parses a dataflow policy expression (§4):
///
///   SHIP <*|attr [, attr]*> [AS AGGREGATES fn [, fn]*]
///   FROM table [alias] TO <*|location [, location]*>
///   [WHERE predicate] [GROUP BY attr [, attr]*]
Result<PolicyExprAst> ParsePolicyExpression(const std::string& text);

}  // namespace cgq

#endif  // CGQ_SQL_PARSER_H_
