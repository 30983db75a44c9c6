#include "plan/binder.h"

#include <algorithm>

#include "common/str_util.h"

namespace cgq {

namespace {

// Resolves one textual column reference to a bound column expression.
Result<ExprPtr> ResolveColumn(const Expr& ref, const PlannerContext& ctx) {
  const std::string& qualifier = ref.qualifier();
  const std::string& column = ToLower(ref.column());
  const RelInstance* match = nullptr;
  size_t col_index = 0;
  if (!qualifier.empty()) {
    const RelInstance* inst = ctx.FindInstance(qualifier);
    if (inst == nullptr) {
      return Status::NotFound("unknown relation alias '" + qualifier + "'");
    }
    std::optional<size_t> idx = inst->table->schema.IndexOf(column);
    if (!idx) {
      return Status::NotFound("no column '" + column + "' in '" + qualifier +
                              "'");
    }
    match = inst;
    col_index = *idx;
  } else {
    for (const RelInstance& inst : ctx.instances()) {
      std::optional<size_t> idx = inst.table->schema.IndexOf(column);
      if (idx) {
        if (match != nullptr) {
          return Status::InvalidArgument("ambiguous column '" + column + "'");
        }
        match = &inst;
        col_index = *idx;
      }
    }
    if (match == nullptr) {
      return Status::NotFound("unknown column '" + column + "'");
    }
  }
  AttrId id = PlannerContext::MakeBaseAttrId(match->rel_index,
                                             static_cast<uint32_t>(col_index));
  return Expr::BoundColumn(id, match->alias, column, match->table->name,
                           ctx.attr(id).type);
}

// Binds an expression that may reference SELECT-list output names (used by
// HAVING). Unqualified names matching an output alias resolve to that
// output's attribute; everything else binds normally.
Result<ExprPtr> BindOutputExpr(const ExprPtr& expr,
                               const std::vector<BoundSelectItem>& select,
                               const PlannerContext& ctx) {
  if (expr->op() == ExprOp::kColumnRef) {
    if (expr->is_bound()) return expr;
    if (expr->qualifier().empty()) {
      for (const BoundSelectItem& item : select) {
        if (item.name == ToLower(expr->column())) {
          DataType type = item.agg
                              ? (item.agg == AggFn::kCount
                                     ? DataType::kInt64
                                     : (item.agg == AggFn::kAvg
                                            ? DataType::kDouble
                                            : item.expr->type()))
                              : item.expr->type();
          return Expr::BoundColumn(item.out_id, "", item.name, "", type);
        }
      }
    }
    return BindExpr(expr, ctx);
  }
  if (expr->children().empty()) return expr;
  std::vector<ExprPtr> bound_children;
  for (const ExprPtr& c : expr->children()) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr b, BindOutputExpr(c, select, ctx));
    bound_children.push_back(std::move(b));
  }
  switch (expr->op()) {
    case ExprOp::kNot:
      return Expr::Unary(ExprOp::kNot, bound_children[0]);
    case ExprOp::kIn:
      return Expr::InList(bound_children[0], expr->in_list(),
                          expr->in_list_ordinals());
    default:
      return Expr::Binary(expr->op(), bound_children[0], bound_children[1]);
  }
}

}  // namespace

Result<ExprPtr> BindExpr(const ExprPtr& expr, const PlannerContext& ctx) {
  if (expr->op() == ExprOp::kColumnRef) {
    if (expr->is_bound()) return expr;
    return ResolveColumn(*expr, ctx);
  }
  if (expr->children().empty()) return expr;
  if (!IsBinaryOp(expr->op())) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(expr->child(0), ctx));
    if (expr->op() == ExprOp::kNot) {
      return Expr::Unary(ExprOp::kNot, std::move(operand));
    }
    return Expr::InList(std::move(operand), expr->in_list(),
                        expr->in_list_ordinals());
  }
  // A chain of binary operators (`a OR b OR ...`) is bound along its left
  // spine rather than one recursion level per link.
  const LeftSpine spine(*expr, IsBinaryOp);
  CGQ_ASSIGN_OR_RETURN(ExprPtr acc, BindExpr(spine.node(0).child(0), ctx));
  for (size_t i = 0; i < spine.size(); ++i) {
    const Expr& node = spine.node(i);
    CGQ_ASSIGN_OR_RETURN(ExprPtr right, BindExpr(node.child(1), ctx));
    acc = Expr::Binary(node.op(), std::move(acc), std::move(right));
  }
  return acc;
}

Result<BoundQuery> BindQuery(const QueryAst& ast, PlannerContext* ctx) {
  if (ast.from.empty()) {
    return Status::InvalidArgument("FROM clause must not be empty");
  }
  BoundQuery out;
  for (const TableRefAst& ref : ast.from) {
    CGQ_ASSIGN_OR_RETURN(uint32_t rel, ctx->AddInstance(ref.alias, ref.table));
    out.rel_indexes.push_back(rel);
  }
  // GROUP BY first: needed to validate select items.
  for (const ExprPtr& g : ast.group_by) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(g, *ctx));
    if (bound->op() != ExprOp::kColumnRef) {
      return Status::Unsupported("GROUP BY supports column references only");
    }
    if (std::find(out.group_ids.begin(), out.group_ids.end(),
                  bound->attr_id()) == out.group_ids.end()) {
      out.group_ids.push_back(bound->attr_id());
    }
  }

  bool has_agg_item = false;
  for (const SelectItemAst& item : ast.select) {
    BoundSelectItem bound;
    CGQ_ASSIGN_OR_RETURN(bound.expr, BindExpr(item.expr, *ctx));
    bound.agg = item.agg;
    bound.name = ToLower(item.output_name);
    has_agg_item |= item.agg.has_value();
    if (item.agg) {
      // Allocate the aggregate's output attribute here so HAVING (and the
      // plan builder) can reference it.
      AttrInfo info;
      info.name = bound.name;
      info.type = *item.agg == AggFn::kCount
                      ? DataType::kInt64
                      : (*item.agg == AggFn::kAvg ? DataType::kDouble
                                                  : bound.expr->type());
      info.width = 8;
      bound.out_id = ctx->AddSynthetic(std::move(info));
    } else if (bound.expr->op() == ExprOp::kColumnRef) {
      bound.out_id = bound.expr->attr_id();
    }
    out.select.push_back(std::move(bound));
  }
  out.is_aggregate = has_agg_item || !out.group_ids.empty();

  // SELECT DISTINCT desugars to grouping by every output column.
  if (ast.distinct) {
    if (out.is_aggregate) {
      return Status::Unsupported(
          "SELECT DISTINCT cannot be combined with aggregation");
    }
    out.is_aggregate = true;
    for (const BoundSelectItem& item : out.select) {
      if (std::find(out.group_ids.begin(), out.group_ids.end(),
                    item.out_id) == out.group_ids.end()) {
        out.group_ids.push_back(item.out_id);
      }
    }
  }

  if (out.is_aggregate) {
    for (const BoundSelectItem& item : out.select) {
      if (item.agg) continue;
      if (item.expr->op() != ExprOp::kColumnRef) {
        return Status::Unsupported(
            "non-aggregate select items must be plain columns");
      }
      if (std::find(out.group_ids.begin(), out.group_ids.end(),
                    item.expr->attr_id()) == out.group_ids.end()) {
        return Status::InvalidArgument("select column '" +
                                       item.expr->ToString() +
                                       "' is not in GROUP BY");
      }
    }
  } else {
    for (const BoundSelectItem& item : out.select) {
      if (item.expr->op() != ExprOp::kColumnRef) {
        return Status::Unsupported(
            "computed non-aggregate select items are not supported");
      }
    }
  }

  if (ast.where != nullptr) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(ast.where, *ctx));
    out.where_conjuncts = SplitConjuncts(where);
  }

  if (ast.having != nullptr) {
    if (!out.is_aggregate) {
      return Status::InvalidArgument("HAVING requires GROUP BY");
    }
    CGQ_ASSIGN_OR_RETURN(ExprPtr having,
                         BindOutputExpr(ast.having, out.select, *ctx));
    out.having_conjuncts = SplitConjuncts(having);
  }

  for (const OrderItemAst& item : ast.order_by) {
    std::string name = ToLower(item.name);
    bool found = false;
    for (const BoundSelectItem& sel : out.select) {
      found |= sel.name == name;
    }
    if (!found) {
      return Status::InvalidArgument("ORDER BY column '" + name +
                                     "' is not an output column");
    }
    out.order_by.push_back(OrderItemAst{name, item.descending});
  }
  out.limit = ast.limit;
  return out;
}

}  // namespace cgq
