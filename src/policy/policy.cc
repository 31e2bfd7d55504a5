#include "policy/policy.h"

#include <algorithm>

#include "common/string_util.h"

namespace sieve {

ObjectCondition ObjectCondition::Eq(std::string attr, Value v) {
  ObjectCondition oc;
  oc.attr = std::move(attr);
  oc.op = CompareOp::kEq;
  oc.value = std::move(v);
  return oc;
}

ObjectCondition ObjectCondition::Range(std::string attr, Value lo, Value hi) {
  ObjectCondition oc;
  oc.attr = std::move(attr);
  oc.op = CompareOp::kGe;
  oc.value = std::move(lo);
  oc.op2 = CompareOp::kLe;
  oc.value2 = std::move(hi);
  return oc;
}

ObjectCondition ObjectCondition::Derived(std::string attr,
                                         std::string subquery) {
  ObjectCondition oc;
  oc.attr = std::move(attr);
  oc.op = CompareOp::kEq;
  oc.subquery_sql = std::move(subquery);
  return oc;
}

bool ObjectCondition::AsInterval(Value* lo, Value* hi) const {
  if (is_derived()) return false;
  if (is_range()) {
    // Only closed ranges participate in merging (generator emits >=, <=).
    if (op != CompareOp::kGe || op2 != CompareOp::kLe) return false;
    *lo = value;
    *hi = *value2;
    return true;
  }
  if (op == CompareOp::kEq) {
    *lo = value;
    *hi = value;
    return true;
  }
  return false;
}

ExprPtr ObjectCondition::ToExpr() const {
  if (is_derived()) {
    return MakeCompare(op, MakeColumn(attr),
                       std::make_shared<SubqueryExpr>(subquery_sql));
  }
  if (is_range()) {
    if (op == CompareOp::kGe && op2 == CompareOp::kLe) {
      return MakeBetween(attr, value, *value2);
    }
    std::vector<ExprPtr> parts;
    parts.push_back(MakeColumnCompare(attr, op, value));
    parts.push_back(MakeColumnCompare(attr, op2, *value2));
    return MakeAnd(std::move(parts));
  }
  return MakeColumnCompare(attr, op, value);
}

ExprPtr Policy::ObjectExpr() const {
  std::vector<ExprPtr> parts;
  parts.reserve(object_conditions.size());
  for (const auto& oc : object_conditions) parts.push_back(oc.ToExpr());
  return MakeAnd(std::move(parts));
}

std::string Policy::ToString() const {
  return StrFormat("policy{id=%lld table=%s owner=%s querier=%s purpose=%s "
                   "action=%s oc=[%s]}",
                   static_cast<long long>(id), table_name.c_str(),
                   owner.ToString().c_str(), querier.c_str(), purpose.c_str(),
                   action == PolicyAction::kAllow ? "allow" : "deny",
                   ObjectExpr()->ToSql().c_str());
}

std::vector<std::string> MapGroupResolver::GroupsOf(
    const std::string& user) const {
  std::vector<std::string> out;
  for (const auto& [member, group] : memberships_) {
    if (EqualsIgnoreCase(member, user)) out.push_back(group);
  }
  return out;
}

bool PolicyMatchesMetadata(const Policy& policy, const QueryMetadata& md,
                           const GroupResolver* resolver) {
  return GrantMatchesMetadata(policy.querier, policy.purpose, md, resolver);
}

bool GrantMatchesMetadata(const std::string& grant_querier,
                          const std::string& grant_purpose,
                          const QueryMetadata& md,
                          const GroupResolver* resolver) {
  if (!EqualsIgnoreCase(grant_purpose, md.purpose) &&
      !EqualsIgnoreCase(grant_purpose, "any")) {
    return false;
  }
  if (EqualsIgnoreCase(grant_querier, md.querier)) return true;
  if (resolver != nullptr) {
    for (const std::string& group : resolver->GroupsOf(md.querier)) {
      if (EqualsIgnoreCase(grant_querier, group)) return true;
    }
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> GrantKeysFor(
    const QueryMetadata& md, const GroupResolver* resolver) {
  std::vector<std::string> queriers{ToLower(md.querier)};
  if (resolver != nullptr) {
    for (const std::string& group : resolver->GroupsOf(md.querier)) {
      std::string g = ToLower(group);
      if (std::find(queriers.begin(), queriers.end(), g) == queriers.end()) {
        queriers.push_back(std::move(g));
      }
    }
  }
  std::vector<std::string> purposes{ToLower(md.purpose)};
  if (purposes[0] != "any") purposes.push_back("any");
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(queriers.size() * purposes.size());
  for (const std::string& q : queriers) {
    for (const std::string& p : purposes) keys.emplace_back(q, p);
  }
  return keys;
}

std::vector<Policy> FoldDenyIntoAllow(const Policy& allow, const Policy& deny) {
  std::vector<Policy> out;
  if (allow.owner != deny.owner ||
      !EqualsIgnoreCase(allow.table_name, deny.table_name)) {
    out.push_back(allow);
    return out;
  }
  // Find a shared range attribute present in both policies.
  for (size_t ai = 0; ai < allow.object_conditions.size(); ++ai) {
    const ObjectCondition& a = allow.object_conditions[ai];
    Value a_lo, a_hi;
    if (!a.AsInterval(&a_lo, &a_hi) || a_lo.Compare(a_hi) == 0) continue;
    for (const ObjectCondition& d : deny.object_conditions) {
      if (!EqualsIgnoreCase(d.attr, a.attr)) continue;
      Value d_lo, d_hi;
      if (!d.AsInterval(&d_lo, &d_hi)) continue;
      // No overlap: the deny does not restrict this allow.
      if (d_hi.Compare(a_lo) < 0 || d_lo.Compare(a_hi) > 0) continue;
      // Left remainder [a_lo, d_lo) and right remainder (d_hi, a_hi].
      // Ordered value domains here are integral (time seconds, date days,
      // ints), so open bounds step by one unit.
      auto step = [](const Value& v, int64_t delta) {
        switch (v.type()) {
          case DataType::kInt:
            return Value::Int(v.raw() + delta);
          case DataType::kTime:
            return Value::Time(v.raw() + delta);
          case DataType::kDate:
            return Value::Date(v.raw() + delta);
          default:
            return v;
        }
      };
      if (a_lo.Compare(d_lo) < 0) {
        Policy left = allow;
        left.object_conditions[ai] =
            ObjectCondition::Range(a.attr, a_lo, step(d_lo, -1));
        out.push_back(std::move(left));
      }
      if (d_hi.Compare(a_hi) < 0) {
        Policy right = allow;
        right.object_conditions[ai] =
            ObjectCondition::Range(a.attr, step(d_hi, 1), a_hi);
        out.push_back(std::move(right));
      }
      return out;  // possibly empty: fully denied
    }
  }
  // Structurally incompatible: keep the allow unchanged.
  out.push_back(allow);
  return out;
}

}  // namespace sieve
