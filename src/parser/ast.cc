#include "parser/ast.h"

#include <functional>
#include <optional>

#include "common/string_util.h"

namespace sieve {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kNone:
      return "";
    case AggFn::kCount:
    case AggFn::kCountStar:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
  }
  return "";
}

std::string SelectItem::ToSql() const {
  std::string out;
  if (agg == AggFn::kCountStar) {
    out = "COUNT(*)";
  } else if (agg != AggFn::kNone) {
    out = std::string(AggFnName(agg)) + "(" + expr->ToSql() + ")";
  } else {
    out = expr->ToSql();
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  if (agg == AggFn::kCountStar) return "count";
  if (agg != AggFn::kNone) {
    return ToLower(AggFnName(agg)) + "_" + expr->ToSql();
  }
  return expr->ToSql();
}

std::string IndexHint::ToSql() const {
  switch (kind) {
    case Kind::kNone:
      return "";
    case Kind::kForceIndex:
      return " FORCE INDEX (" + Join(columns, ", ") + ")";
    case Kind::kIgnoreAllIndexes:
      return " USE INDEX ()";
  }
  return "";
}

std::string TableRef::ToSql() const {
  std::string out;
  if (subquery != nullptr) {
    out = "(" + subquery->ToSql() + ")";
  } else {
    out = table_name;
  }
  if (!alias.empty()) out += " AS " + alias;
  out += hint.ToSql();
  return out;
}

bool SelectStmt::HasAggregates() const {
  for (const auto& item : items) {
    if (item.agg != AggFn::kNone) return true;
  }
  return false;
}

std::string SelectStmt::ToSql() const {
  std::string out;
  if (!ctes.empty()) {
    out += "WITH ";
    for (size_t i = 0; i < ctes.size(); ++i) {
      if (i > 0) out += ", ";
      out += ctes[i].name + " AS (" + ctes[i].query->ToSql() + ")";
    }
    out += " ";
  }
  out += "SELECT ";
  if (select_star) {
    out += "*";
  } else {
    std::vector<std::string> parts;
    parts.reserve(items.size());
    for (const auto& item : items) parts.push_back(item.ToSql());
    out += Join(parts, ", ");
  }
  if (!from.empty()) {
    out += " FROM ";
    std::vector<std::string> parts;
    parts.reserve(from.size());
    for (const auto& ref : from) parts.push_back(ref.ToSql());
    out += Join(parts, ", ");
  }
  if (where != nullptr) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    std::vector<std::string> parts;
    parts.reserve(group_by.size());
    for (const auto& g : group_by) parts.push_back(g->ToSql());
    out += Join(parts, ", ");
  }
  if (union_next != nullptr) {
    switch (set_op) {
      case SetOpKind::kUnion:
        out += " UNION ";
        break;
      case SetOpKind::kUnionAll:
        out += " UNION ALL ";
        break;
      case SetOpKind::kExcept:
        out += " EXCEPT ";
        break;
    }
    out += union_next->ToSql();
  }
  return out;
}

namespace {

// Applies `fn` to every ExprPtr slot in the tree rooted at *slot (children
// first, so `fn` may replace the node it is handed without re-walking).
// The callback receives the slot and may reseat it.
Status VisitExprSlots(ExprPtr* slot, const std::function<Status(ExprPtr*)>& fn) {
  Expr* e = slot->get();
  switch (e->kind()) {
    case ExprKind::kComparison: {
      auto* c = static_cast<ComparisonExpr*>(e);
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&c->mutable_left(), fn));
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&c->mutable_right(), fn));
      break;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(e);
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&b->mutable_input(), fn));
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&b->mutable_lo(), fn));
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&b->mutable_hi(), fn));
      break;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(e);
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&in->mutable_input(), fn));
      for (auto& item : in->mutable_items()) {
        SIEVE_RETURN_IF_ERROR(VisitExprSlots(&item, fn));
      }
      break;
    }
    case ExprKind::kAnd:
      for (auto& c : static_cast<AndExpr*>(e)->mutable_children()) {
        SIEVE_RETURN_IF_ERROR(VisitExprSlots(&c, fn));
      }
      break;
    case ExprKind::kOr:
      for (auto& c : static_cast<OrExpr*>(e)->mutable_children()) {
        SIEVE_RETURN_IF_ERROR(VisitExprSlots(&c, fn));
      }
      break;
    case ExprKind::kNot:
      SIEVE_RETURN_IF_ERROR(
          VisitExprSlots(&static_cast<NotExpr*>(e)->mutable_child(), fn));
      break;
    case ExprKind::kUdfCall:
      for (auto& a : static_cast<UdfCallExpr*>(e)->mutable_args()) {
        SIEVE_RETURN_IF_ERROR(VisitExprSlots(&a, fn));
      }
      break;
    default:  // leaves: literal, column ref, parameter, subquery text
      break;
  }
  return fn(slot);
}

// Applies `fn` to every expression slot of the statement: select items,
// WHERE, GROUP BY, CTE bodies, derived tables and all set-op arms.
Status VisitStmtExprSlots(SelectStmt* stmt,
                          const std::function<Status(ExprPtr*)>& fn) {
  for (SelectStmt* arm = stmt; arm != nullptr; arm = arm->union_next.get()) {
    for (auto& cte : arm->ctes) {
      SIEVE_RETURN_IF_ERROR(VisitStmtExprSlots(cte.query.get(), fn));
    }
    for (auto& item : arm->items) {
      if (item.expr != nullptr) {
        SIEVE_RETURN_IF_ERROR(VisitExprSlots(&item.expr, fn));
      }
    }
    for (auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        SIEVE_RETURN_IF_ERROR(VisitStmtExprSlots(ref.subquery.get(), fn));
      }
    }
    if (arm->where != nullptr) {
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&arm->where, fn));
    }
    for (auto& g : arm->group_by) {
      SIEVE_RETURN_IF_ERROR(VisitExprSlots(&g, fn));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::string>> CollectParameterSlots(const SelectStmt& stmt) {
  std::vector<std::optional<std::string>> slots;
  // The walk only reads; VisitStmtExprSlots is shared with BindParameters,
  // which mutates, hence the const_cast.
  Status st = VisitStmtExprSlots(
      const_cast<SelectStmt*>(&stmt), [&slots](ExprPtr* slot) -> Status {
        if ((*slot)->kind() != ExprKind::kParameter) return Status::OK();
        const auto& param = static_cast<const ParameterExpr&>(**slot);
        if (param.slot() >= slots.size()) slots.resize(param.slot() + 1);
        std::optional<std::string>& name = slots[param.slot()];
        if (!name.has_value() || *name == param.name()) {
          name = param.name();
          return Status::OK();
        }
        return Status::InvalidArgument(
            "parameter slot " + std::to_string(param.slot()) +
            " bound to two names: '" + *name + "' vs '" + param.name() + "'");
      });
  SIEVE_RETURN_IF_ERROR(st);
  std::vector<std::string> out;
  out.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].has_value()) {
      return Status::InvalidArgument("parameter slot " + std::to_string(i) +
                                     " never appears in the statement");
    }
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

std::vector<std::string> CollectSubqueryTexts(const SelectStmt& stmt) {
  std::vector<std::string> out;
  // Read-only walk (see CollectParameterSlots for the const_cast); the
  // callback never fails.
  VisitStmtExprSlots(
      const_cast<SelectStmt*>(&stmt), [&out](ExprPtr* slot) -> Status {
        if ((*slot)->kind() == ExprKind::kSubquery) {
          out.push_back(static_cast<const SubqueryExpr&>(**slot).sql());
        }
        return Status::OK();
      });
  return out;
}

Status BindParameters(SelectStmt* stmt, const std::vector<Value>& params) {
  return VisitStmtExprSlots(stmt, [&params](ExprPtr* slot) -> Status {
    if ((*slot)->kind() != ExprKind::kParameter) return Status::OK();
    const auto& param = static_cast<const ParameterExpr&>(**slot);
    if (param.slot() >= params.size()) {
      return Status::BindError("no value bound for parameter " +
                               param.ToSql() + " (slot " +
                               std::to_string(param.slot()) + ")");
    }
    *slot = MakeLiteral(params[param.slot()]);
    return Status::OK();
  });
}

SelectStmtPtr SelectStmt::Clone() const {
  auto out = std::make_shared<SelectStmt>();
  out->ctes.reserve(ctes.size());
  for (const auto& cte : ctes) {
    out->ctes.push_back({cte.name, cte.query->Clone()});
  }
  out->select_star = select_star;
  out->items.reserve(items.size());
  for (const auto& item : items) {
    SelectItem copy = item;
    if (copy.expr != nullptr) copy.expr = copy.expr->Clone();
    out->items.push_back(std::move(copy));
  }
  out->from.reserve(from.size());
  for (const auto& ref : from) {
    TableRef copy;
    copy.table_name = ref.table_name;
    copy.alias = ref.alias;
    copy.hint = ref.hint;
    if (ref.subquery != nullptr) copy.subquery = ref.subquery->Clone();
    out->from.push_back(std::move(copy));
  }
  if (where != nullptr) out->where = where->Clone();
  out->group_by.reserve(group_by.size());
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (union_next != nullptr) out->union_next = union_next->Clone();
  out->union_all = union_all;
  out->set_op = set_op;
  return out;
}

}  // namespace sieve
