#include "catalog/deployment.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/str_util.h"
#include "core/deny_rules.h"

namespace cgq {

namespace {

Result<DataType> TypeFromName(const std::string& name) {
  if (name == "int64" || name == "int" || name == "bigint") {
    return DataType::kInt64;
  }
  if (name == "double" || name == "float" || name == "decimal") {
    return DataType::kDouble;
  }
  if (name == "string" || name == "text" || name == "varchar") {
    return DataType::kString;
  }
  if (name == "date") return DataType::kDate;
  return Status::InvalidArgument("unknown column type '" + name + "'");
}

// "berlin 0.5, tokyo 0.5" or "berlin" -> fragments.
Result<std::vector<TableFragment>> ParsePlacement(
    const Catalog& catalog, const std::string& text) {
  std::vector<TableFragment> fragments;
  for (const std::string& piece : SplitAndTrim(text, ',')) {
    std::istringstream is(piece);
    std::string name;
    double fraction = -1;
    is >> name >> fraction;
    if (name.empty()) {
      return Status::InvalidArgument("bad placement '" + text + "'");
    }
    CGQ_ASSIGN_OR_RETURN(LocationId l, catalog.locations().GetId(name));
    fragments.push_back(TableFragment{l, fraction});
  }
  // Unspecified fractions default to a uniform split.
  bool any_missing = false;
  for (const TableFragment& f : fragments) any_missing |= f.row_fraction < 0;
  if (any_missing) {
    for (TableFragment& f : fragments) {
      f.row_fraction = 1.0 / static_cast<double>(fragments.size());
    }
  }
  return fragments;
}

}  // namespace

Result<Deployment> ParseDeployment(const std::string& text) {
  Deployment out;
  std::istringstream stream(text);
  std::string raw_line;
  int line_no = 0;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument("deployment line " +
                                   std::to_string(line_no) + ": " + msg);
  };

  while (std::getline(stream, raw_line)) {
    ++line_no;
    std::string line(Trim(raw_line));
    if (line.empty() || line[0] == '#') continue;
    // Backslash continuation: join with following lines.
    while (!line.empty() && line.back() == '\\' &&
           std::getline(stream, raw_line)) {
      ++line_no;
      line.pop_back();
      line = std::string(Trim(line)) + " " + std::string(Trim(raw_line));
    }

    if (line.rfind("location ", 0) == 0) {
      std::string name(Trim(line.substr(9)));
      CGQ_RETURN_NOT_OK(
          out.catalog.mutable_locations().AddLocation(name).status());
      continue;
    }

    bool replicated = false;
    if (line.rfind("replicated table ", 0) == 0) {
      replicated = true;
      line = "table " + line.substr(17);
    }
    if (line.rfind("table ", 0) == 0) {
      size_t at = line.find('@');
      size_t colon = line.find(':', at == std::string::npos ? 0 : at);
      if (at == std::string::npos || colon == std::string::npos) {
        return error("expected 'table <name> @ <placement> : <columns>'");
      }
      TableDef def;
      def.replicated = replicated;
      def.name = ToLower(std::string(Trim(line.substr(6, at - 6))));
      CGQ_ASSIGN_OR_RETURN(
          def.fragments,
          ParsePlacement(out.catalog,
                         std::string(Trim(
                             line.substr(at + 1, colon - at - 1)))));
      std::vector<ColumnDef> columns;
      for (const std::string& col :
           SplitAndTrim(line.substr(colon + 1), ',')) {
        std::istringstream is(col);
        std::string cname, ctype;
        is >> cname >> ctype;
        if (cname.empty() || ctype.empty()) {
          return error("bad column declaration '" + col + "'");
        }
        CGQ_ASSIGN_OR_RETURN(DataType type, TypeFromName(ToLower(ctype)));
        columns.push_back({ToLower(cname), type});
      }
      if (columns.empty()) return error("table needs at least one column");
      def.schema = Schema(std::move(columns));
      def.stats.row_count = 1000;  // placeholder until `rows` / ANALYZE
      CGQ_RETURN_NOT_OK(out.catalog.AddTable(std::move(def)));
      continue;
    }

    if (line.rfind("rows ", 0) == 0) {
      std::istringstream is(line.substr(5));
      std::string table;
      double rows = 0;
      is >> table >> rows;
      CGQ_ASSIGN_OR_RETURN(const TableDef* def, out.catalog.GetTable(table));
      TableStats stats = def->stats;
      stats.row_count = rows;
      CGQ_RETURN_NOT_OK(out.catalog.SetStats(table, stats));
      continue;
    }

    if (line.rfind("policy ", 0) == 0) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) {
        return error("expected 'policy <location> : <expression>'");
      }
      std::string location(Trim(line.substr(7, colon - 7)));
      std::string expr(Trim(line.substr(colon + 1)));
      if (location.empty() || expr.empty()) {
        return error("empty policy location or expression");
      }
      out.policies.emplace_back(std::move(location), std::move(expr));
      continue;
    }

    return error("unrecognized directive '" + line + "'");
  }
  return out;
}

std::string WriteDeployment(const Catalog& catalog,
                            const PolicyCatalog& policies) {
  std::ostringstream os;
  const LocationCatalog& locs = catalog.locations();
  for (LocationId l = 0; l < locs.num_locations(); ++l) {
    os << "location " << locs.GetName(l) << "\n";
  }
  os << "\n";
  auto type_name = [](DataType t) {
    switch (t) {
      case DataType::kInt64:
        return "int64";
      case DataType::kDouble:
        return "double";
      case DataType::kString:
        return "string";
      case DataType::kDate:
        return "date";
    }
    return "string";
  };
  for (const std::string& name : catalog.TableNames()) {
    auto def = catalog.GetTable(name);
    if (!def.ok()) continue;
    if ((*def)->replicated) os << "replicated ";
    os << "table " << name << " @ ";
    const std::vector<TableFragment>& fragments = (*def)->fragments;
    for (size_t i = 0; i < fragments.size(); ++i) {
      if (i > 0) os << ", ";
      os << locs.GetName(fragments[i].location);
      if (!(*def)->replicated && fragments.size() > 1) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), " %g", fragments[i].row_fraction);
        os << buf;
      }
    }
    os << " : ";
    for (size_t c = 0; c < (*def)->schema.num_columns(); ++c) {
      if (c > 0) os << ", ";
      const ColumnDef& col = (*def)->schema.column(c);
      os << col.name << " " << type_name(col.type);
    }
    os << "\n";
    os << "rows " << name << " "
       << static_cast<long long>((*def)->stats.row_count) << "\n";
  }
  os << "\n";
  // Every installed expression, absorbed ones included (the index merges
  // subsumed expressions, but the deployment states all of them), in id
  // order — the order they were installed in.
  for (LocationId l = 0; l < locs.num_locations(); ++l) {
    std::vector<const PolicyExpression*> installed;
    for (const PolicyExpression& e : policies.For(l)) installed.push_back(&e);
    for (const auto& a : policies.Absorbed(l)) installed.push_back(&a.expr);
    std::sort(installed.begin(), installed.end(),
              [](const PolicyExpression* a, const PolicyExpression* b) {
                return a->id < b->id;
              });
    for (const PolicyExpression* e : installed) {
      os << "policy " << locs.GetName(l) << " : " << e->ToString(locs)
         << "\n";
    }
  }
  return os.str();
}

Status InstallDeploymentPolicies(const Deployment& deployment,
                                 PolicyCatalog* policies) {
  // Group deny rules per location so one closed-world expansion sees all
  // of a location's denials for a table.
  std::map<std::string, std::vector<std::string>> denies;
  for (const auto& [location, text] : deployment.policies) {
    if (text.rfind("deny", 0) == 0) {
      denies[location].push_back(text);
    } else {
      CGQ_RETURN_NOT_OK(policies->AddPolicyText(location, text));
    }
  }
  for (const auto& [location, texts] : denies) {
    CGQ_RETURN_NOT_OK(AddDenyPolicies(location, texts, policies));
  }
  return Status::OK();
}

}  // namespace cgq
