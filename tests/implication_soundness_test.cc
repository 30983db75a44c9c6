// Brute-force soundness oracle for the implication tests that decide
// Algorithm 1's line 3 (P_q ⟹ P_e): PredicateImplies, which the reference
// evaluator uses, and PremiseConstraints::Implies, which the production
// evaluator uses. Neither checks the other — both are built on the same
// constraint normalizer — so this test checks each against the semantics.
//
// Seeded random conjunctive premises and conclusions over two int columns
// whose domain is {NULL, 0, 1, 2, 3}. Whenever either test answers
// "implies", every one of the 25 rows is evaluated with this file's own
// three-valued evaluator: a row on which every premise conjunct is TRUE
// must make every conclusion conjunct TRUE. Incompleteness ("does not
// imply" although it does) is allowed by design; unsoundness is a
// Theorem-1 bug.
//
// Atoms: the six comparisons (column vs literal either way round, and
// column vs column), IN lists (including the empty one), NOT of a
// comparison, and two-branch ORs of those. The expression language has no
// IS [NOT] NULL; NULL enters through the column domain, where comparisons,
// IN and NOT all yield UNKNOWN.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/expr.h"
#include "expr/implication.h"

namespace cgq {
namespace {

constexpr int kCases = 120000;
constexpr int kNumColumns = 2;
constexpr int64_t kMaxValue = 3;  // column domain {NULL, 0..kMaxValue}

using Cell = std::optional<int64_t>;  // nullopt = NULL
using Row = std::vector<Cell>;

enum class Truth { kFalse, kUnknown, kTrue };

Truth FromBool(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

Truth Not(Truth t) {
  if (t == Truth::kUnknown) return t;
  return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
}

Truth Or(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kFalse && b == Truth::kFalse) return Truth::kFalse;
  return Truth::kUnknown;
}

const ExprOp kComparisons[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                               ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};

ExprPtr Column(int c) {
  const std::string name = c == 0 ? "x" : "y";
  return Expr::BoundColumn(static_cast<AttrId>(c), "t", name, "t",
                           DataType::kInt64);
}

// The generated operand: a column index or an int literal.
struct Operand {
  bool is_column = false;
  int column = 0;
  int64_t value = 0;
};

Cell OperandValue(const Operand& o, const Row& row) {
  return o.is_column ? row[o.column] : Cell(o.value);
}

// A generated atom with its own evaluator, and the expression tree built
// from it for the implication tests.
struct Atom {
  enum class Kind { kCompare, kIn, kNot, kOr } kind = Kind::kCompare;
  ExprOp op = ExprOp::kEq;
  Operand lhs, rhs;
  std::vector<int64_t> in_list;
  std::vector<Atom> children;  ///< kNot: 1, kOr: 2

  Truth Eval(const Row& row) const {
    switch (kind) {
      case Kind::kCompare: {
        Cell l = OperandValue(lhs, row);
        Cell r = OperandValue(rhs, row);
        if (!l || !r) return Truth::kUnknown;
        switch (op) {
          case ExprOp::kEq:
            return FromBool(*l == *r);
          case ExprOp::kNe:
            return FromBool(*l != *r);
          case ExprOp::kLt:
            return FromBool(*l < *r);
          case ExprOp::kLe:
            return FromBool(*l <= *r);
          case ExprOp::kGt:
            return FromBool(*l > *r);
          default:
            return FromBool(*l >= *r);
        }
      }
      case Kind::kIn: {
        Cell v = OperandValue(lhs, row);
        if (!v) return Truth::kUnknown;
        for (int64_t x : in_list) {
          if (x == *v) return Truth::kTrue;
        }
        return Truth::kFalse;
      }
      case Kind::kNot:
        return Not(children[0].Eval(row));
      case Kind::kOr:
        return Or(children[0].Eval(row), children[1].Eval(row));
    }
    return Truth::kUnknown;
  }

  ExprPtr Build() const {
    auto operand = [](const Operand& o) {
      return o.is_column ? Column(o.column)
                         : Expr::Literal(Value::Int64(o.value));
    };
    switch (kind) {
      case Kind::kCompare:
        return Expr::Binary(op, operand(lhs), operand(rhs));
      case Kind::kIn: {
        std::vector<Value> values;
        for (int64_t x : in_list) values.push_back(Value::Int64(x));
        return Expr::InList(operand(lhs), std::move(values));
      }
      case Kind::kNot:
        return Expr::Unary(ExprOp::kNot, children[0].Build());
      case Kind::kOr:
        return Expr::Binary(ExprOp::kOr, children[0].Build(),
                            children[1].Build());
    }
    return nullptr;
  }
};

class AtomGenerator {
 public:
  explicit AtomGenerator(uint64_t seed) : rng_(seed) {}

  Atom Next() {
    const int64_t roll = rng_.Uniform(0, 9);
    if (roll < 5) return Comparison();
    if (roll < 7) return In();
    if (roll < 8) {
      Atom a;
      a.kind = Atom::Kind::kNot;
      a.children.push_back(Comparison());
      return a;
    }
    Atom a;
    a.kind = Atom::Kind::kOr;
    a.children.push_back(rng_.Bernoulli(0.7) ? Comparison() : In());
    a.children.push_back(rng_.Bernoulli(0.7) ? Comparison() : In());
    return a;
  }

  std::vector<Atom> Conjunction(int max_atoms) {
    std::vector<Atom> atoms;
    const int64_t n = rng_.Uniform(1, max_atoms);
    for (int64_t i = 0; i < n; ++i) atoms.push_back(Next());
    return atoms;
  }

 private:
  Operand ColumnOperand() {
    Operand o;
    o.is_column = true;
    o.column = static_cast<int>(rng_.Uniform(0, kNumColumns - 1));
    return o;
  }
  Operand LiteralOperand() {
    Operand o;
    // One past each end of the domain exercises strict/non-strict bounds.
    o.value = rng_.Uniform(-1, kMaxValue + 1);
    return o;
  }

  Atom Comparison() {
    Atom a;
    a.op = kComparisons[rng_.Uniform(0, 5)];
    const int64_t shape = rng_.Uniform(0, 9);
    if (shape < 6) {
      a.lhs = ColumnOperand();
      a.rhs = LiteralOperand();
    } else if (shape < 8) {
      a.lhs = LiteralOperand();
      a.rhs = ColumnOperand();
    } else {
      a.lhs = ColumnOperand();
      a.rhs = ColumnOperand();
    }
    return a;
  }

  Atom In() {
    Atom a;
    a.kind = Atom::Kind::kIn;
    a.lhs = ColumnOperand();
    const int64_t n = rng_.Uniform(0, 3);  // 0: the empty list
    for (int64_t i = 0; i < n; ++i) {
      a.in_list.push_back(rng_.Uniform(-1, kMaxValue + 1));
    }
    return a;
  }

  Rng rng_;
};

std::vector<ExprPtr> Build(const std::vector<Atom>& atoms) {
  std::vector<ExprPtr> out;
  for (const Atom& a : atoms) out.push_back(a.Build());
  return out;
}

std::string Render(const std::vector<ExprPtr>& conjuncts) {
  std::string out;
  for (const ExprPtr& c : conjuncts) {
    if (!out.empty()) out += " AND ";
    out += c->ToString();
  }
  return out;
}

// All (NULL, 0..kMaxValue)^2 rows.
std::vector<Row> AllRows() {
  std::vector<Cell> domain = {std::nullopt};
  for (int64_t v = 0; v <= kMaxValue; ++v) domain.push_back(v);
  std::vector<Row> rows;
  for (const Cell& x : domain) {
    for (const Cell& y : domain) rows.push_back({x, y});
  }
  return rows;
}

// A row on which the premise holds but the conclusion does not, if any.
std::optional<Row> Counterexample(const std::vector<Atom>& premise,
                                  const std::vector<Atom>& conclusion,
                                  const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    bool premise_true = true;
    for (const Atom& a : premise) premise_true &= a.Eval(row) == Truth::kTrue;
    if (!premise_true) continue;
    for (const Atom& a : conclusion) {
      if (a.Eval(row) != Truth::kTrue) return row;
    }
  }
  return std::nullopt;
}

std::string RowString(const Row& row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    out += (c == 0 ? "x=" : ", y=") +
           (row[c] ? std::to_string(*row[c]) : std::string("NULL"));
  }
  return out;
}

TEST(ImplicationSoundnessTest, NoCounterexampleOnTinyDomains) {
  AtomGenerator gen(20210620);
  const std::vector<Row> rows = AllRows();
  int implied = 0, direct_implied = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::vector<Atom> premise = gen.Conjunction(3);
    const std::vector<Atom> conclusion = gen.Conjunction(2);
    const std::vector<ExprPtr> p = Build(premise);
    const std::vector<ExprPtr> c = Build(conclusion);

    const bool plain = PredicateImplies(p, c);
    const bool direct = PremiseConstraints(p).Implies(c);
    implied += plain ? 1 : 0;
    direct_implied += direct ? 1 : 0;
    if (!plain && !direct) continue;
    if (std::optional<Row> row = Counterexample(premise, conclusion, rows)) {
      ADD_FAILURE() << "case " << i << ": " << Render(p) << "  ⟹  "
                    << Render(c) << " claimed by"
                    << (plain ? " PredicateImplies" : "")
                    << (direct ? " PremiseConstraints::Implies" : "")
                    << ", but row (" << RowString(*row)
                    << ") satisfies the premise and not the conclusion";
    }
  }
  // The generator must reach the interesting side often enough for the
  // oracle to mean something.
  EXPECT_GT(implied, kCases / 50);
  EXPECT_GT(direct_implied, kCases / 50);
}

}  // namespace
}  // namespace cgq
