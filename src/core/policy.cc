#include "core/policy.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "plan/binder.h"
#include "plan/planner_context.h"
#include "sql/parser.h"

namespace cgq {

namespace {

// Every element of `sub` appears in `super` (attribute lists are short and
// lower-cased, so linear find beats any set machinery).
bool StringsSubset(const std::vector<std::string>& sub,
                   const std::vector<std::string>& super) {
  for (const std::string& s : sub) {
    if (std::find(super.begin(), super.end(), s) == super.end()) return false;
  }
  return true;
}

bool AggFnsSubset(const std::vector<AggFn>& sub,
                  const std::vector<AggFn>& super) {
  for (AggFn f : sub) {
    if (std::find(super.begin(), super.end(), f) == super.end()) return false;
  }
  return true;
}

// Bit mask of every column ref in the subtree. `*ok` is cleared when a ref
// cannot be mapped to a schema bit (unknown column, index >= 64).
uint64_t SubtreeColumnMask(const Expr& e, const Schema& schema, bool* ok) {
  if (e.op() == ExprOp::kColumnRef) {
    std::optional<size_t> i = schema.IndexOf(e.column());
    if (!i || *i >= 64) {
      *ok = false;
      return 0;
    }
    return uint64_t{1} << *i;
  }
  uint64_t mask = 0;
  for (const ExprPtr& c : e.children()) {
    mask |= SubtreeColumnMask(*c, schema, ok);
  }
  return mask;
}

void FlattenOr(const Expr& e, std::vector<const Expr*>* branches) {
  if (e.op() == ExprOp::kOr) {
    FlattenOr(*e.child(0), branches);
    FlattenOr(*e.child(1), branches);
    return;
  }
  branches->push_back(&e);
}

// Columns the premise must mention for this conclusion conjunct to be
// implied (absent a contradictory premise): a non-OR atom is only implied
// through constraints or structural matches on its own columns; an OR atom
// is implied when any one branch is, so only the columns common to every
// branch are truly required.
uint64_t ConjunctRequiredMask(const Expr& c, const Schema& schema, bool* ok) {
  if (c.op() != ExprOp::kOr) return SubtreeColumnMask(c, schema, ok);
  std::vector<const Expr*> branches;
  FlattenOr(c, &branches);
  uint64_t required = ~uint64_t{0};
  for (const Expr* b : branches) {
    required &= SubtreeColumnMask(*b, schema, ok);
  }
  return required;
}

// Fills predicate_fp and all column bitmasks of `expr`.
void ComputeDerived(const Catalog& catalog, PolicyExpression* expr) {
  expr->predicate_fp = FingerprintConjuncts(expr->predicate);
  expr->ship_mask = 0;
  expr->group_mask = 0;
  expr->masks_valid = false;
  expr->pred_mask = 0;
  expr->pred_mask_valid = false;
  auto def = catalog.GetTable(expr->table);
  if (!def.ok()) return;
  const Schema& schema = (*def)->schema;
  bool ok = true;
  auto to_mask = [&](const std::vector<std::string>& cols, uint64_t* mask) {
    for (const std::string& c : cols) {
      std::optional<size_t> i = schema.IndexOf(c);
      if (!i || *i >= 64) {
        ok = false;
        return;
      }
      *mask |= uint64_t{1} << *i;
    }
  };
  to_mask(expr->attributes, &expr->ship_mask);
  to_mask(expr->group_by, &expr->group_mask);
  expr->masks_valid = ok;

  bool pred_ok = true;
  uint64_t pred_mask = 0;
  for (const ExprPtr& c : expr->predicate) {
    pred_mask |= ConjunctRequiredMask(*c, schema, &pred_ok);
  }
  expr->pred_mask = pred_ok ? pred_mask : 0;
  expr->pred_mask_valid = pred_ok;
}

}  // namespace

bool PolicyExpression::HasShipAttribute(const std::string& column) const {
  return std::find(attributes.begin(), attributes.end(), column) !=
         attributes.end();
}

bool PolicyExpression::HasGroupAttribute(const std::string& column) const {
  return std::find(group_by.begin(), group_by.end(), column) !=
         group_by.end();
}

bool PolicyExpression::AllowsAggFn(AggFn fn) const {
  return std::find(agg_fns.begin(), agg_fns.end(), fn) != agg_fns.end();
}

std::string PolicyExpression::ToString(
    const LocationCatalog& locations) const {
  std::string out = "ship " + Join(attributes, ", ");
  if (is_aggregate()) {
    out += " as aggregates ";
    for (size_t i = 0; i < agg_fns.size(); ++i) {
      if (i > 0) out += ", ";
      out += ToLower(AggFnToString(agg_fns[i]));
    }
  }
  out += " from " + table + " to ";
  if (to == locations.All()) {
    out += "*";
  } else {
    std::vector<std::string> names;
    for (LocationId l : to.ToVector()) names.push_back(locations.GetName(l));
    out += Join(names, ", ");
  }
  if (!predicate.empty()) {
    out += " where ";
    for (size_t i = 0; i < predicate.size(); ++i) {
      if (i > 0) out += " and ";
      out += predicate[i]->ToString();
    }
  }
  if (!group_by.empty()) {
    out += " group by " + Join(group_by, ", ");
  }
  return out;
}

bool PolicySubsumes(const PolicyExpression& super, const PolicyExpression& sub,
                    SubsumptionMode mode) {
  if (super.table != sub.table) return false;
  if (!sub.to.IsSubsetOf(super.to)) return false;

  if (mode == SubsumptionMode::kSemantic) {
    if (super.is_aggregate() || sub.is_aggregate()) return false;
    if (!StringsSubset(sub.attributes, super.attributes)) return false;
    // sub's rows must all satisfy super's condition: P_sub ⟹ P_super.
    return PredicateImplies(sub.predicate, super.predicate);
  }

  // kDecisionSafe. The algorithmic implication test is not transitive, so
  // the predicates may only differ in ways every premise agrees on: equal
  // fingerprints (the implication cache key — identical results for any
  // premise) or an empty superseding predicate (implied by everything).
  if (!(sub.predicate_fp == super.predicate_fp) && !super.predicate.empty()) {
    return false;
  }
  if (!super.is_aggregate()) {
    // A basic expression grants its ship attributes at every aggregation
    // level, so it covers a basic sub (attrs ⊆) and an aggregate sub
    // (ship and group attrs both ⊆ its ship attrs, any aggregate fn).
    return StringsSubset(sub.attributes, super.attributes) &&
           StringsSubset(sub.group_by, super.attributes);
  }
  // An aggregate super only grants on aggregate queries — it can never
  // cover a basic sub.
  if (!sub.is_aggregate()) return false;
  return StringsSubset(sub.attributes, super.attributes) &&
         StringsSubset(sub.group_by, super.group_by) &&
         AggFnsSubset(sub.agg_fns, super.agg_fns);
}

Status PolicyCatalog::AddPolicyText(const std::string& location_name,
                                    const std::string& text) {
  CGQ_ASSIGN_OR_RETURN(LocationId location,
                       catalog_->locations().GetId(location_name));
  CGQ_ASSIGN_OR_RETURN(PolicyExprAst ast, ParsePolicyExpression(text));

  CGQ_ASSIGN_OR_RETURN(const TableDef* table, catalog_->GetTable(ast.table));

  PolicyExpression expr;
  expr.table = table->name;

  if (ast.ship_all) {
    for (const ColumnDef& col : table->schema.columns()) {
      expr.attributes.push_back(ToLower(col.name));
    }
  } else {
    for (const std::string& attr : ast.attributes) {
      if (!table->schema.IndexOf(attr)) {
        return Status::InvalidArgument("policy references unknown column '" +
                                       attr + "' of table '" + expr.table +
                                       "'");
      }
      expr.attributes.push_back(attr);
    }
  }

  expr.agg_fns = ast.agg_fns;
  if (!ast.group_by.empty() && ast.agg_fns.empty()) {
    return Status::InvalidArgument(
        "GROUP BY requires an AS AGGREGATES clause");
  }
  for (const std::string& g : ast.group_by) {
    if (!table->schema.IndexOf(g)) {
      return Status::InvalidArgument("policy GROUP BY references unknown "
                                     "column '" + g + "'");
    }
    expr.group_by.push_back(g);
  }

  if (ast.to_all) {
    expr.to = catalog_->locations().All();
  } else {
    for (const std::string& name : ast.to_locations) {
      CGQ_ASSIGN_OR_RETURN(LocationId l, catalog_->locations().GetId(name));
      expr.to.Add(l);
    }
  }

  if (ast.where != nullptr) {
    PlannerContext ctx(catalog_);
    CGQ_RETURN_NOT_OK(ctx.AddInstance(ast.alias, ast.table).status());
    CGQ_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(ast.where, ctx));
    expr.predicate = SplitConjuncts(bound);
  }

  return AddPolicy(location, std::move(expr));
}

void PolicyCatalog::EnsureLocation(LocationId location) {
  if (by_location_.size() <= location) by_location_.resize(location + 1);
  if (bucket_index_.size() <= location) bucket_index_.resize(location + 1);
  if (absorbed_.size() <= location) absorbed_.resize(location + 1);
}

Status PolicyCatalog::AddPolicy(LocationId location, PolicyExpression expr) {
  if (location >= catalog_->locations().num_locations()) {
    return Status::InvalidArgument("unknown location id " +
                                   std::to_string(location));
  }
  EnsureLocation(location);
  ComputeDerived(*catalog_, &expr);
  expr.id = next_id_++;
  Install(location, std::move(expr));
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

int64_t PolicyCatalog::FindAbsorber(LocationId location,
                                    const PolicyExpression& expr) const {
  auto it = bucket_index_[location].find(expr.table);
  if (it == bucket_index_[location].end()) return -1;
  const TableBuckets& tb = it->second;
  const std::vector<PolicyExpression>& exprs = by_location_[location];
  const uint64_t needed = expr.ship_mask | expr.group_mask;

  // An absorber's attribute sets are supersets of ours, so its signature
  // covers `needed` — skip buckets that cannot (unless our own masks are
  // unreliable, in which case every bucket stays in play).
  for (const Bucket& b : tb.buckets) {
    if (expr.masks_valid && (needed & ~b.signature) != 0) continue;
    for (size_t idx : b.entries) {
      if (PolicySubsumes(exprs[idx], expr, SubsumptionMode::kDecisionSafe)) {
        return exprs[idx].id;
      }
    }
  }
  for (size_t idx : tb.unmaskable) {
    if (PolicySubsumes(exprs[idx], expr, SubsumptionMode::kDecisionSafe)) {
      return exprs[idx].id;
    }
  }
  return -1;
}

void PolicyCatalog::InstallActive(LocationId location, PolicyExpression expr) {
  std::vector<PolicyExpression>& exprs = by_location_[location];

  // The broader incoming expression may subsume existing actives — move
  // them to the absorbed store (they keep their ids and resurrect if this
  // expression is ever removed). Victims' signatures are subsets of ours.
  std::vector<size_t> victims;
  if (auto it = bucket_index_[location].find(expr.table);
      it != bucket_index_[location].end()) {
    const uint64_t sig = expr.ship_mask | expr.group_mask;
    for (const Bucket& b : it->second.buckets) {
      if (expr.masks_valid && (b.signature & ~sig) != 0) continue;
      for (size_t idx : b.entries) {
        if (PolicySubsumes(expr, exprs[idx], SubsumptionMode::kDecisionSafe)) {
          victims.push_back(idx);
        }
      }
    }
    for (size_t idx : it->second.unmaskable) {
      if (PolicySubsumes(expr, exprs[idx], SubsumptionMode::kDecisionSafe)) {
        victims.push_back(idx);
      }
    }
  }
  if (!victims.empty()) {
    std::sort(victims.begin(), victims.end());
    for (size_t idx : victims) {
      absorbed_[location].push_back({std::move(exprs[idx]), expr.id});
    }
    for (size_t i = victims.size(); i > 0; --i) {
      exprs.erase(exprs.begin() + static_cast<ptrdiff_t>(victims[i - 1]));
    }
  }

  exprs.push_back(std::move(expr));
  if (victims.empty()) {
    // Fast path: only the tail changed.
    IndexActive(location, exprs.size() - 1);
  } else {
    RebuildIndexes(location);
  }
}

void PolicyCatalog::Install(LocationId location, PolicyExpression expr) {
  int64_t absorber = FindAbsorber(location, expr);
  if (absorber >= 0) {
    absorbed_[location].push_back({std::move(expr), absorber});
  } else {
    InstallActive(location, std::move(expr));
  }
}

Status PolicyCatalog::RemovePolicy(int64_t id) {
  for (LocationId loc = 0; loc < by_location_.size(); ++loc) {
    std::vector<PolicyExpression>& exprs = by_location_[loc];
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (exprs[i].id != id) continue;
      exprs.erase(exprs.begin() + static_cast<ptrdiff_t>(i));
      // Stored indices after `i` all shifted down by one.
      RebuildIndexes(loc);
      // Un-merge: donors the removed expression had absorbed come back —
      // each either re-absorbs under another active or turns active again.
      std::vector<PolicyExpression> donors;
      if (loc < absorbed_.size()) {
        auto& abs = absorbed_[loc];
        for (auto it = abs.begin(); it != abs.end();) {
          if (it->absorbed_by == id) {
            donors.push_back(std::move(it->expr));
            it = abs.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (PolicyExpression& d : donors) Install(loc, std::move(d));
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  // Not active — possibly an absorbed expression.
  for (LocationId loc = 0; loc < absorbed_.size(); ++loc) {
    auto& abs = absorbed_[loc];
    for (size_t i = 0; i < abs.size(); ++i) {
      if (abs[i].expr.id != id) continue;
      abs.erase(abs.begin() + static_cast<ptrdiff_t>(i));
      // Donors chained under the removed entry (it absorbed them back when
      // it was active) re-parent to a live absorber or turn active.
      std::vector<PolicyExpression> donors;
      for (auto it = abs.begin(); it != abs.end();) {
        if (it->absorbed_by == id) {
          donors.push_back(std::move(it->expr));
          it = abs.erase(it);
        } else {
          ++it;
        }
      }
      for (PolicyExpression& d : donors) Install(loc, std::move(d));
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  return Status::NotFound("no policy with id " + std::to_string(id));
}

void PolicyCatalog::IndexActive(LocationId location, size_t index) {
  const PolicyExpression& e = by_location_[location][index];
  TableBuckets& tb = bucket_index_[location][e.table];
  if (!e.masks_valid) {
    tb.unmaskable.push_back(index);
    return;
  }
  const uint64_t sig = e.ship_mask | e.group_mask;
  const uint64_t pred = e.pred_mask_valid ? e.pred_mask : 0;
  for (Bucket& b : tb.buckets) {
    if (b.signature == sig && b.pred_mask == pred &&
        b.pred_valid == e.pred_mask_valid) {
      b.entries.push_back(index);
      return;
    }
  }
  tb.buckets.push_back(Bucket{sig, pred, e.pred_mask_valid, {index}});
}

void PolicyCatalog::RebuildIndexes(LocationId location) {
  bucket_index_[location].clear();
  for (size_t i = 0; i < by_location_[location].size(); ++i) {
    IndexActive(location, i);
  }
}

uint64_t PolicyCatalog::TablePolicyFingerprint(
    LocationId location, const std::string& table) const {
  // FNV-1a over the content of every active expression governing
  // (location, table), in For(location) order (bucket shuffles do not move
  // it). Seeded with the pair itself so distinct empty dependency sets
  // still hash apart.
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  auto mix_str = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // terminator, so {"ab","c"} != {"a","bc"}
    h *= 1099511628211ULL;
  };
  mix(location);
  mix_str(table);
  for (const PolicyExpression& e : For(location)) {
    if (e.table != table) continue;
    mix(e.predicate_fp.hi);
    mix(e.predicate_fp.lo);
    mix(e.to.bits());
    mix(static_cast<uint64_t>(e.attributes.size()));
    for (const std::string& a : e.attributes) mix_str(a);
    mix(static_cast<uint64_t>(e.agg_fns.size()));
    for (AggFn fn : e.agg_fns) mix(static_cast<uint64_t>(fn));
    mix(static_cast<uint64_t>(e.group_by.size()));
    for (const std::string& g : e.group_by) mix_str(g);
  }
  if (h == 0) h = 1;  // reserve 0 for "not computed"
  return h;
}

const std::vector<PolicyExpression>& PolicyCatalog::For(
    LocationId location) const {
  static const std::vector<PolicyExpression> kEmpty;
  if (location >= by_location_.size()) return kEmpty;
  return by_location_[location];
}

const std::vector<PolicyCatalog::AbsorbedPolicy>& PolicyCatalog::Absorbed(
    LocationId location) const {
  static const std::vector<AbsorbedPolicy> kEmpty;
  if (location >= absorbed_.size()) return kEmpty;
  return absorbed_[location];
}

void PolicyCatalog::AppendCandidates(LocationId location,
                                     const std::string& table,
                                     uint64_t query_mask, bool mask_exact,
                                     uint64_t premise_cap,
                                     bool premise_capped,
                                     std::vector<size_t>* out,
                                     size_t* prefiltered) const {
  if (location >= bucket_index_.size()) return;
  auto it = bucket_index_[location].find(table);
  if (it == bucket_index_[location].end()) return;
  const TableBuckets& tb = it->second;
  for (const Bucket& b : tb.buckets) {
    if (mask_exact && (b.signature & query_mask) == 0) continue;
    if (b.pred_valid && premise_capped && (b.pred_mask & ~premise_cap) != 0) {
      // The shared predicate needs a column some (non-contradictory)
      // instance premise never constrains: P_q ⟹ P_e fails for every
      // entry, none can grant anything.
      if (prefiltered != nullptr) *prefiltered += b.entries.size();
      continue;
    }
    out->insert(out->end(), b.entries.begin(), b.entries.end());
  }
  out->insert(out->end(), tb.unmaskable.begin(), tb.unmaskable.end());
}

std::optional<LocationSet> PolicyCatalog::FindEvalMemo(uint64_t a,
                                                       uint64_t b) const {
  const EvalShard& shard = eval_shards_[a % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(MemoKey{a, b});
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

void PolicyCatalog::StoreEvalMemo(uint64_t a, uint64_t b,
                                  LocationSet legal) const {
  EvalShard& shard = eval_shards_[a % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= kMemoShardCap) shard.map.clear();
  shard.map[MemoKey{a, b}] = legal;
}

bool PolicyCatalog::HasPoliciesFor(
    LocationId location, const std::vector<std::string>& tables) const {
  if (location >= bucket_index_.size()) return false;
  // A table has a bucket entry exactly when some active expression
  // governs it (IndexActive creates them, RebuildIndexes drops empties).
  for (const std::string& t : tables) {
    if (bucket_index_[location].contains(t)) return true;
  }
  return false;
}

size_t PolicyCatalog::ActiveCount() const {
  size_t n = 0;
  for (const auto& v : by_location_) n += v.size();
  return n;
}

size_t PolicyCatalog::TotalCount() const {
  size_t n = ActiveCount();
  for (const auto& v : absorbed_) n += v.size();
  return n;
}

PolicyCatalog::IndexStats PolicyCatalog::Stats() const {
  IndexStats out;
  out.active = ActiveCount();
  for (const auto& v : absorbed_) out.absorbed += v.size();
  for (const auto& per_loc : bucket_index_) {
    out.tables += per_loc.size();
    for (const auto& [table, tb] : per_loc) {
      out.buckets += tb.buckets.size();
      for (const Bucket& b : tb.buckets) {
        out.max_bucket = std::max(out.max_bucket, b.entries.size());
      }
      out.max_bucket = std::max(out.max_bucket, tb.unmaskable.size());
    }
  }
  return out;
}

void PolicyCatalog::ShuffleBucketsForTest(uint64_t seed) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto shuffle = [&next](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  };
  for (auto& per_loc : bucket_index_) {
    for (auto& [table, tb] : per_loc) {
      shuffle(tb.buckets);
      for (Bucket& b : tb.buckets) shuffle(b.entries);
      shuffle(tb.unmaskable);
    }
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyCatalog::Clear() {
  by_location_.clear();
  bucket_index_.clear();
  absorbed_.clear();
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace cgq
