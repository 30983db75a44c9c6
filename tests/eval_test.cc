#include <gtest/gtest.h>

#include "expr/eval.h"
#include "sql/parser.h"

namespace cgq {
namespace {

// Evaluates `expr_sql` (parsed as a WHERE clause) against a row binding
// unbound columns a, b, s by name.
class EvalTest : public ::testing::Test {
 protected:
  // Layout with three attrs; we bind parser output (unbound refs) manually.
  Result<Value> Eval(const std::string& pred_sql, Value a, Value b,
                     Value s) {
    auto ast = ParseQuery("SELECT x FROM t WHERE " + pred_sql);
    if (!ast.ok()) return ast.status();
    ExprPtr bound = Bind(ast->where);
    Row row = {std::move(a), std::move(b), std::move(s)};
    return EvalExpr(*bound, row, layout_);
  }

  ExprPtr Bind(const ExprPtr& e) {
    if (e->op() == ExprOp::kColumnRef) {
      AttrId id = e->column() == "a" ? 0 : (e->column() == "b" ? 1 : 2);
      DataType t = id == 2 ? DataType::kString : DataType::kInt64;
      return Expr::BoundColumn(id, "t", e->column(), "t", t);
    }
    if (e->children().empty()) return e;
    std::vector<ExprPtr> kids;
    for (const ExprPtr& c : e->children()) kids.push_back(Bind(c));
    switch (e->op()) {
      case ExprOp::kNot:
        return Expr::Unary(ExprOp::kNot, kids[0]);
      case ExprOp::kIn:
        return Expr::InList(kids[0], e->in_list());
      default:
        return Expr::Binary(e->op(), kids[0], kids[1]);
    }
  }

  RowLayout layout_{std::vector<AttrId>{0, 1, 2}};
};

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(Eval("a > 3", Value::Int64(5), Value::Null(), Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a > 3", Value::Int64(2), Value::Null(), Value::Null())
                ->int64(),
            0);
  EXPECT_EQ(
      Eval("a = b", Value::Int64(2), Value::Int64(2), Value::Null())->int64(),
      1);
}

TEST_F(EvalTest, NullComparisonsYieldNull) {
  EXPECT_TRUE(
      Eval("a > 3", Value::Null(), Value::Null(), Value::Null())->is_null());
  EXPECT_TRUE(
      Eval("a = b", Value::Int64(1), Value::Null(), Value::Null())->is_null());
}

TEST_F(EvalTest, KleeneAndOr) {
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  EXPECT_EQ(Eval("a > 3 AND b > 3", Value::Null(), Value::Int64(1),
                 Value::Null())
                ->int64(),
            0);
  EXPECT_TRUE(Eval("a > 3 AND b > 3", Value::Null(), Value::Int64(5),
                   Value::Null())
                  ->is_null());
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  EXPECT_EQ(Eval("a > 3 OR b > 3", Value::Null(), Value::Int64(5),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_TRUE(Eval("a > 3 OR b > 3", Value::Null(), Value::Int64(1),
                   Value::Null())
                  ->is_null());
  // Longer chains: a decided operand anywhere wins over NULLs before it.
  EXPECT_TRUE(Eval("a > 3 AND b > 3 AND a < 9", Value::Null(),
                   Value::Int64(5), Value::Null())
                  ->is_null());
  EXPECT_EQ(Eval("a > 3 AND b > 3 AND b < 0", Value::Null(), Value::Int64(5),
                 Value::Null())
                ->int64(),
            0);
  EXPECT_EQ(Eval("a > 3 OR b > 3 OR b = 1", Value::Null(), Value::Int64(1),
                 Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, NotOfNull) {
  EXPECT_TRUE(
      Eval("NOT a > 3", Value::Null(), Value::Null(), Value::Null())
          ->is_null());
  EXPECT_EQ(Eval("NOT a > 3", Value::Int64(1), Value::Null(), Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + b = 7", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a * b = 12", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a - b = -1", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  // Chains associate to the left: (3 - 4) - 3, and 3 + (4 * 2) - 3.
  EXPECT_EQ(Eval("a - b - a = -4", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a + b * 2 - a = 8", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval("a / b > 0", Value::Int64(3), Value::Int64(0),
                   Value::Null())
                  ->is_null());
}

TEST_F(EvalTest, DivisionProducesDouble) {
  EXPECT_EQ(Eval("a / b = 1.5", Value::Int64(3), Value::Int64(2),
                 Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, LikeOnRow) {
  EXPECT_EQ(Eval("s LIKE 'A%'", Value::Null(), Value::Null(),
                 Value::String("Anna"))
                ->int64(),
            1);
  EXPECT_EQ(Eval("s NOT LIKE 'A%'", Value::Null(), Value::Null(),
                 Value::String("Anna"))
                ->int64(),
            0);
  EXPECT_TRUE(
      Eval("s LIKE 'A%'", Value::Null(), Value::Null(), Value::Null())
          ->is_null());
}

TEST_F(EvalTest, InList) {
  EXPECT_EQ(Eval("a IN (1, 2, 3)", Value::Int64(2), Value::Null(),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a IN (1, 2, 3)", Value::Int64(9), Value::Null(),
                 Value::Null())
                ->int64(),
            0);
  EXPECT_TRUE(Eval("a IN (1, 2, 3)", Value::Null(), Value::Null(),
                   Value::Null())
                  ->is_null());
}

TEST_F(EvalTest, PredicateHelperRejectsNull) {
  auto ast = ParseQuery("SELECT x FROM t WHERE a > 3");
  ExprPtr bound = Bind(ast->where);
  Row row = {Value::Null(), Value::Null(), Value::Null()};
  auto r = EvalPredicate(*bound, row, layout_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // NULL predicate filters the row out
}

TEST(AggAccumulatorTest, SumIgnoresNulls) {
  AggAccumulator acc(AggFn::kSum);
  acc.Add(Value::Int64(2));
  acc.Add(Value::Null());
  acc.Add(Value::Int64(5));
  EXPECT_EQ(acc.Finish().int64(), 7);
}

TEST(AggAccumulatorTest, SumOfDoublesStaysDouble) {
  AggAccumulator acc(AggFn::kSum);
  acc.Add(Value::Double(1.5));
  acc.Add(Value::Int64(2));
  EXPECT_DOUBLE_EQ(acc.Finish().dbl(), 3.5);
}

TEST(AggAccumulatorTest, EmptySumIsNull) {
  AggAccumulator acc(AggFn::kSum);
  EXPECT_TRUE(acc.Finish().is_null());
}

TEST(AggAccumulatorTest, CountCountsNonNulls) {
  AggAccumulator acc(AggFn::kCount);
  acc.Add(Value::Int64(1));
  acc.Add(Value::Null());
  acc.Add(Value::String("x"));
  EXPECT_EQ(acc.Finish().int64(), 2);
}

TEST(AggAccumulatorTest, EmptyCountIsZero) {
  AggAccumulator acc(AggFn::kCount);
  EXPECT_EQ(acc.Finish().int64(), 0);
}

TEST(AggAccumulatorTest, Avg) {
  AggAccumulator acc(AggFn::kAvg);
  acc.Add(Value::Int64(2));
  acc.Add(Value::Int64(4));
  EXPECT_DOUBLE_EQ(acc.Finish().dbl(), 3.0);
}

TEST(AggAccumulatorTest, MinMax) {
  AggAccumulator mn(AggFn::kMin), mx(AggFn::kMax);
  for (int v : {5, 2, 9, 3}) {
    mn.Add(Value::Int64(v));
    mx.Add(Value::Int64(v));
  }
  EXPECT_EQ(mn.Finish().int64(), 2);
  EXPECT_EQ(mx.Finish().int64(), 9);
}

TEST(AggAccumulatorTest, MinMaxStrings) {
  AggAccumulator mn(AggFn::kMin);
  mn.Add(Value::String("pear"));
  mn.Add(Value::String("apple"));
  EXPECT_EQ(mn.Finish().str(), "apple");
}

}  // namespace
}  // namespace cgq
