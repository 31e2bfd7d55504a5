#include "policy/policy_store.h"

#include <algorithm>

#include "common/string_util.h"

namespace sieve {

Status PolicyStore::Init() {
  if (db_->catalog().Find(kPolicyTable) == nullptr) {
    Schema rp({{"id", DataType::kInt},
               {"owner", DataType::kString},
               {"querier", DataType::kString},
               {"associated_table", DataType::kString},
               {"purpose", DataType::kString},
               {"action", DataType::kString},
               {"inserted_at", DataType::kInt}});
    SIEVE_RETURN_IF_ERROR(db_->CreateTable(kPolicyTable, std::move(rp)));
    SIEVE_RETURN_IF_ERROR(db_->CreateIndex(kPolicyTable, "querier"));
  }
  if (db_->catalog().Find(kConditionTable) == nullptr) {
    Schema roc({{"id", DataType::kInt},
                {"policy_id", DataType::kInt},
                {"attr", DataType::kString},
                {"op", DataType::kString},
                {"val", DataType::kString}});
    SIEVE_RETURN_IF_ERROR(db_->CreateTable(kConditionTable, std::move(roc)));
    SIEVE_RETURN_IF_ERROR(db_->CreateIndex(kConditionTable, "policy_id"));
  }
  return Status::OK();
}

namespace {

// Case-insensitive grant key: lower-cased fields joined by '\x1f' (unit
// separator, which cannot appear in identifiers).
std::string LowerKey(const std::string& querier, const std::string& purpose,
                     const std::string& table) {
  std::string key;
  key.reserve(querier.size() + purpose.size() + table.size() + 2);
  key += ToLower(querier);
  key += '\x1f';
  key += ToLower(purpose);
  key += '\x1f';
  key += ToLower(table);
  return key;
}

// Serializes a value for the rOC.val column, keeping the logical type tag so
// LoadFromTables can round-trip it.
std::string EncodeValue(const Value& v) {
  return std::string(DataTypeName(v.type())) + ":" + v.ToString();
}

Result<Value> DecodeValue(const std::string& text) {
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("malformed rOC value: " + text);
  }
  std::string tag = text.substr(0, colon);
  std::string body = text.substr(colon + 1);
  if (tag == "int") return Value::Int(std::strtoll(body.c_str(), nullptr, 10));
  if (tag == "double") return Value::Double(std::strtod(body.c_str(), nullptr));
  if (tag == "string") return Value::String(body);
  if (tag == "bool") return Value::Bool(body == "true");
  if (tag == "time") return Value::ParseTime(body);
  if (tag == "date") return Value::ParseDate(body);
  return Status::InvalidArgument("unknown rOC value tag: " + tag);
}

}  // namespace

Status PolicyStore::PersistPolicy(const Policy& policy) {
  Row rp_row{Value::Int(policy.id),
             Value::String(policy.owner.ToString()),
             Value::String(policy.querier),
             Value::String(policy.table_name),
             Value::String(policy.purpose),
             Value::String(policy.action == PolicyAction::kAllow ? "allow"
                                                                 : "deny"),
             Value::Int(policy.inserted_at)};
  auto inserted = db_->Insert(kPolicyTable, std::move(rp_row));
  if (!inserted.ok()) return inserted.status();

  for (const auto& oc : policy.object_conditions) {
    if (oc.is_derived()) {
      Row row{Value::Int(next_oc_id_++), Value::Int(policy.id),
              Value::String(oc.attr), Value::String(CompareOpSymbol(oc.op)),
              Value::String("sql:" + oc.subquery_sql)};
      auto st = db_->Insert(kConditionTable, std::move(row));
      if (!st.ok()) return st.status();
      continue;
    }
    Row row{Value::Int(next_oc_id_++), Value::Int(policy.id), Value::String(oc.attr),
            Value::String(CompareOpSymbol(oc.op)),
            Value::String(EncodeValue(oc.value))};
    auto st = db_->Insert(kConditionTable, std::move(row));
    if (!st.ok()) return st.status();
    if (oc.is_range()) {
      Row row2{Value::Int(next_oc_id_++), Value::Int(policy.id),
               Value::String(oc.attr), Value::String(CompareOpSymbol(oc.op2)),
               Value::String(EncodeValue(*oc.value2))};
      auto st2 = db_->Insert(kConditionTable, std::move(row2));
      if (!st2.ok()) return st2.status();
    }
  }
  return Status::OK();
}

Result<int64_t> PolicyStore::AddPolicy(Policy policy) {
  if (policy.id < 0) policy.id = next_id_;
  next_id_ = std::max(next_id_, policy.id + 1);
  if (policy.inserted_at == 0) policy.inserted_at = logical_clock_++;
  SIEVE_RETURN_IF_ERROR(PersistPolicy(policy));
  by_id_[policy.id] = policies_.size();
  int64_t id = policy.id;
  policies_.push_back(std::move(policy));
  CountMutation(policies_.back(), +1);
  BumpVersion();
  return id;
}

Status PolicyStore::RemovePolicy(int64_t id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound(StrFormat("no policy with id %lld",
                                      static_cast<long long>(id)));
  }
  size_t pos = it->second;
  Policy removed = policies_[pos];
  by_id_.erase(it);
  policies_.erase(policies_.begin() + static_cast<long>(pos));
  // Rebuild the id map (positions shifted).
  for (size_t i = 0; i < policies_.size(); ++i) by_id_[policies_[i].id] = i;
  // Count the in-memory change before touching the catalog, so a failed
  // tombstone below cannot leave cached rewrites of the removed policy
  // looking valid.
  CountMutation(removed, -1);
  BumpVersion();

  // Tombstone the persisted rows.
  TableEntry* rp = db_->catalog().Find(kPolicyTable);
  if (rp != nullptr) {
    std::vector<RowId> doomed;
    rp->table->ForEach([&](RowId rid, const Row& row) {
      if (row[0].AsInt() == id) doomed.push_back(rid);
    });
    for (RowId rid : doomed) SIEVE_RETURN_IF_ERROR(db_->Delete(kPolicyTable, rid));
  }
  TableEntry* roc = db_->catalog().Find(kConditionTable);
  if (roc != nullptr) {
    std::vector<RowId> doomed;
    roc->table->ForEach([&](RowId rid, const Row& row) {
      if (row[1].AsInt() == id) doomed.push_back(rid);
    });
    for (RowId rid : doomed) {
      SIEVE_RETURN_IF_ERROR(db_->Delete(kConditionTable, rid));
    }
  }
  return Status::OK();
}

Status PolicyStore::LoadFromTables() {
  // Parse everything into locals first and commit only on success: a
  // failed reload must not leave an empty corpus behind, which would turn
  // every protected table into an unprotected one.
  TableEntry* rp = db_->catalog().Find(kPolicyTable);
  TableEntry* roc = db_->catalog().Find(kConditionTable);
  if (rp == nullptr || roc == nullptr) {
    return Status::NotFound("policy tables are missing; call Init() first");
  }

  std::unordered_map<int64_t, Policy> loaded;
  rp->table->ForEach([&](RowId, const Row& row) {
    Policy p;
    p.id = row[0].AsInt();
    p.owner = row[1];  // owner round-trips as string; exprs live in rOC
    p.querier = row[2].AsString();
    p.table_name = row[3].AsString();
    p.purpose = row[4].AsString();
    p.action = row[5].AsString() == "deny" ? PolicyAction::kDeny
                                           : PolicyAction::kAllow;
    p.inserted_at = row[6].AsInt();
    loaded.emplace(p.id, std::move(p));
  });

  // Group rOC rows per policy and reassemble conditions (two one-sided
  // comparisons on the same attr fold back into one range condition).
  Status status = Status::OK();
  roc->table->ForEach([&](RowId, const Row& row) {
    if (!status.ok()) return;
    int64_t policy_id = row[1].AsInt();
    auto it = loaded.find(policy_id);
    if (it == loaded.end()) return;
    std::string attr = row[2].AsString();
    auto op = ParseCompareOp(row[3].AsString());
    if (!op.ok()) {
      status = op.status();
      return;
    }
    const std::string& text = row[4].AsString();
    if (text.rfind("sql:", 0) == 0) {
      it->second.object_conditions.push_back(
          ObjectCondition::Derived(attr, text.substr(4)));
      return;
    }
    auto value = DecodeValue(text);
    if (!value.ok()) {
      status = value.status();
      return;
    }
    // Try folding into an existing one-sided condition on the same attr.
    for (auto& oc : it->second.object_conditions) {
      if (!EqualsIgnoreCase(oc.attr, attr) || oc.is_range() ||
          oc.is_derived()) {
        continue;
      }
      bool oc_is_lower = oc.op == CompareOp::kGe || oc.op == CompareOp::kGt;
      bool new_is_upper = *op == CompareOp::kLe || *op == CompareOp::kLt;
      if (oc_is_lower && new_is_upper) {
        oc.op2 = *op;
        oc.value2 = std::move(value).value();
        return;
      }
    }
    ObjectCondition oc;
    oc.attr = attr;
    oc.op = *op;
    oc.value = std::move(value).value();
    it->second.object_conditions.push_back(std::move(oc));
  });
  SIEVE_RETURN_IF_ERROR(status);

  std::deque<Policy> policies;
  for (auto& [id, policy] : loaded) policies.push_back(std::move(policy));
  std::sort(policies.begin(), policies.end(),
            [](const Policy& a, const Policy& b) { return a.id < b.id; });
  policies_ = std::move(policies);
  by_id_.clear();
  table_policy_counts_.clear();
  for (size_t i = 0; i < policies_.size(); ++i) {
    by_id_[policies_[i].id] = i;
    next_id_ = std::max(next_id_, policies_[i].id + 1);
    ++table_policy_counts_[ToLower(policies_[i].table_name)];
  }
  // Corpus-wide change: one counter every cached rewrite depends on.
  reload_version_.fetch_add(1);
  BumpVersion();
  return Status::OK();
}

size_t PolicyStore::PolicyCountForTable(const std::string& table) const {
  auto it = table_policy_counts_.find(ToLower(table));
  return it == table_policy_counts_.end() ? 0 : it->second;
}

const VersionCounter& PolicyStore::GrantVersion(const std::string& querier,
                                                const std::string& purpose,
                                                const std::string& table) {
  return grant_versions_.Get(LowerKey(querier, purpose, table));
}

const VersionCounter& PolicyStore::ProtectionVersion(const std::string& table) {
  return protection_versions_.Get(ToLower(table));
}

void PolicyStore::CountMutation(const Policy& policy, int delta) {
  grant_versions_.Bump(
      LowerKey(policy.querier, policy.purpose, policy.table_name));
  std::string table = ToLower(policy.table_name);
  size_t& count = table_policy_counts_[table];
  const bool was_protected = count > 0;
  if (delta > 0) {
    ++count;
  } else if (count > 0) {
    --count;
  }
  if (was_protected != (count > 0)) protection_versions_.Bump(table);
}

const Policy* PolicyStore::FindPolicy(int64_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &policies_[it->second];
}

std::vector<const Policy*> PolicyStore::FilterByMetadata(
    const QueryMetadata& md, const std::string& table,
    const GroupResolver* resolver) const {
  std::vector<const Policy*> out;
  for (const Policy& p : policies_) {
    if (!EqualsIgnoreCase(p.table_name, table)) continue;
    if (PolicyMatchesMetadata(p, md, resolver)) out.push_back(&p);
  }
  return out;
}

std::vector<const Policy*> PolicyStore::PoliciesForQuerier(
    const std::string& querier, const std::string& purpose,
    const std::string& table) const {
  std::vector<const Policy*> out;
  for (const Policy& p : policies_) {
    if (EqualsIgnoreCase(p.querier, querier) &&
        EqualsIgnoreCase(p.purpose, purpose) &&
        EqualsIgnoreCase(p.table_name, table)) {
      out.push_back(&p);
    }
  }
  return out;
}

std::vector<QueryMetadata> PolicyStore::DistinctQueriers(
    const std::string& table) const {
  std::vector<QueryMetadata> out;
  for (const Policy& p : policies_) {
    if (!EqualsIgnoreCase(p.table_name, table)) continue;
    bool seen = false;
    for (const auto& md : out) {
      if (EqualsIgnoreCase(md.querier, p.querier) &&
          EqualsIgnoreCase(md.purpose, p.purpose)) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back({p.querier, p.purpose});
  }
  return out;
}

}  // namespace sieve
