#ifndef SIEVE_POLICY_POLICY_H_
#define SIEVE_POLICY_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metadata.h"
#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"

namespace sieve {

/// One object condition oc_c of a policy (Section 3.1):
///  * comparison  — attr op value                    (constant value)
///  * range       — value <= attr <= value2          (two bounds, inclusive
///                   or exclusive per op/op2)
///  * derived     — attr = (SELECT ...)              (expensive operator /
///                   correlated subquery value)
struct ObjectCondition {
  std::string attr;
  CompareOp op = CompareOp::kEq;
  Value value;
  /// When set, the condition is the range op(value) AND op2(value2),
  /// normally value <= attr <= value2.
  std::optional<Value> value2;
  CompareOp op2 = CompareOp::kLe;
  /// When non-empty, the condition is `attr = (subquery)`.
  std::string subquery_sql;

  static ObjectCondition Eq(std::string attr, Value v);
  static ObjectCondition Range(std::string attr, Value lo, Value hi);
  static ObjectCondition Derived(std::string attr, std::string subquery);

  bool is_range() const { return value2.has_value(); }
  bool is_derived() const { return !subquery_sql.empty(); }

  /// Closed-interval view [lo, hi] for guard generation. Equality becomes
  /// [v, v]; one-sided comparisons and derived conditions return false.
  bool AsInterval(Value* lo, Value* hi) const;

  /// Builds the boolean expression for this condition.
  ExprPtr ToExpr() const;

  std::string ToString() const { return ToExpr()->ToSql(); }
};

enum class PolicyAction { kAllow, kDeny };

/// Access control policy p = <OC, QC, AC> (Section 3.1). Querier conditions
/// follow Purpose-BAC: a querier (user or group) plus a purpose. The object
/// conditions always include the owner condition oc_owner.
struct Policy {
  int64_t id = -1;
  std::string table_name;      // relation the policy protects
  Value owner;                 // owner user id (oc_owner value)
  std::string querier;         // user or group the access is granted to
  std::string purpose;         // declared purpose the grant applies to
  PolicyAction action = PolicyAction::kAllow;
  int64_t inserted_at = 0;     // logical timestamp
  std::vector<ObjectCondition> object_conditions;  // includes oc_owner

  /// Conjunction of all object conditions.
  ExprPtr ObjectExpr() const;

  std::string ToString() const;
};

/// Resolves the groups a user belongs to; used for querier-condition
/// matching (policies granted to a group apply to all its members) and for
/// group-owned data.
class GroupResolver {
 public:
  virtual ~GroupResolver() = default;
  virtual std::vector<std::string> GroupsOf(const std::string& user) const = 0;
};

/// GroupResolver backed by an explicit map.
class MapGroupResolver : public GroupResolver {
 public:
  void AddMembership(const std::string& user, const std::string& group) {
    memberships_.emplace_back(user, group);
  }
  std::vector<std::string> GroupsOf(const std::string& user) const override;

 private:
  std::vector<std::pair<std::string, std::string>> memberships_;
};

/// True when `policy` applies to a query with metadata `md`: purposes match
/// (or the policy purpose is "any") and the policy's querier is md.querier
/// or one of md.querier's groups.
bool PolicyMatchesMetadata(const Policy& policy, const QueryMetadata& md,
                           const GroupResolver* resolver);

/// Core of PolicyMatchesMetadata without needing a whole Policy: does a
/// grant addressed to (grant_querier, grant_purpose) apply to a query with
/// metadata `md`? Incremental guard regeneration and the server's subject
/// check use this so they share exact semantics (case-insensitive match,
/// "any" purpose, group membership) with policy filtering at rewrite time.
bool GrantMatchesMetadata(const std::string& grant_querier,
                          const std::string& grant_purpose,
                          const QueryMetadata& md,
                          const GroupResolver* resolver);

/// The same relation enumerated from the query side: every lower-cased
/// (querier, purpose) grant key whose policies GrantMatchesMetadata admits
/// for `md` — md.querier and each of its groups, under md.purpose and
/// "any", without duplicates. The rewrite cache snapshots these keys'
/// version counters, so a cached rewrite goes stale exactly when a policy
/// the rewriter would filter in is added or removed.
std::vector<std::pair<std::string, std::string>> GrantKeysFor(
    const QueryMetadata& md, const GroupResolver* resolver);

/// Folds an overlapping deny policy into an allow policy (Section 3.1's
/// deny-factoring). Both policies must target the same owner and table.
/// Returns the replacement allow policies (0, 1, or 2 of them): the deny's
/// interval on a shared range attribute is cut out of the allow's interval.
/// When the deny cannot be folded structurally, the allow policy is returned
/// unchanged.
std::vector<Policy> FoldDenyIntoAllow(const Policy& allow, const Policy& deny);

}  // namespace sieve

#endif  // SIEVE_POLICY_POLICY_H_
