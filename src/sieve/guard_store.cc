#include "sieve/guard_store.h"

#include "common/string_util.h"

namespace sieve {

GuardStore::Key GuardStore::Key::Make(const std::string& querier,
                                      const std::string& purpose,
                                      const std::string& table) {
  return Key{ToLower(querier), ToLower(purpose), ToLower(table)};
}

bool GuardStore::Key::operator<(const Key& other) const {
  if (querier != other.querier) return querier < other.querier;
  if (purpose != other.purpose) return purpose < other.purpose;
  return table < other.table;
}

std::string GuardStore::Key::Joined() const {
  return querier + '\x1f' + purpose + '\x1f' + table;
}

const VersionCounter& GuardStore::GuardVersion(const std::string& querier,
                                               const std::string& purpose,
                                               const std::string& table) {
  return key_versions_.Get(Key::Make(querier, purpose, table).Joined());
}

Status GuardStore::Init() {
  if (db_->catalog().Find("rGE") == nullptr) {
    Schema rge({{"id", DataType::kInt},
                {"querier", DataType::kString},
                {"associated_table", DataType::kString},
                {"purpose", DataType::kString},
                {"action", DataType::kString},
                {"outdated", DataType::kBool},
                {"ts_inserted_at", DataType::kInt}});
    SIEVE_RETURN_IF_ERROR(db_->CreateTable("rGE", std::move(rge)));
  }
  if (db_->catalog().Find("rGG") == nullptr) {
    Schema rgg({{"id", DataType::kInt},
                {"guard_expression_id", DataType::kInt},
                {"attr", DataType::kString},
                {"op", DataType::kString},
                {"val", DataType::kString}});
    SIEVE_RETURN_IF_ERROR(db_->CreateTable("rGG", std::move(rgg)));
  }
  if (db_->catalog().Find("rGP") == nullptr) {
    Schema rgp({{"guard_id", DataType::kInt}, {"policy_id", DataType::kInt}});
    SIEVE_RETURN_IF_ERROR(db_->CreateTable("rGP", std::move(rgp)));
  }
  return Status::OK();
}

Status GuardStore::Persist(const GuardedExpression& ge) {
  Row rge_row{Value::Int(ge.id),
              Value::String(ge.querier),
              Value::String(ge.table_name),
              Value::String(ge.purpose),
              Value::String("allow"),
              Value::Bool(false),
              Value::Int(logical_clock_++)};
  auto st = db_->Insert("rGE", std::move(rge_row));
  if (!st.ok()) return st.status();

  for (const Guard& guard : ge.guards) {
    const CandidateGuard& g = guard.guard;
    // Ranges persist as two rGG rows (>= lo, <= hi), equalities as one,
    // mirroring the rOC encoding.
    if (g.IsEquality()) {
      Row row{Value::Int(next_gg_row_id_++), Value::Int(ge.id),
              Value::String(g.attr), Value::String("="),
              Value::String(g.lo.ToString())};
      auto s = db_->Insert("rGG", std::move(row));
      if (!s.ok()) return s.status();
    } else {
      Row row1{Value::Int(next_gg_row_id_++), Value::Int(ge.id),
               Value::String(g.attr), Value::String(">="),
               Value::String(g.lo.ToString())};
      auto s1 = db_->Insert("rGG", std::move(row1));
      if (!s1.ok()) return s1.status();
      Row row2{Value::Int(next_gg_row_id_++), Value::Int(ge.id),
               Value::String(g.attr), Value::String("<="),
               Value::String(g.hi.ToString())};
      auto s2 = db_->Insert("rGG", std::move(row2));
      if (!s2.ok()) return s2.status();
    }
    for (int64_t policy_id : g.policy_ids) {
      Row row{Value::Int(guard.id), Value::Int(policy_id)};
      auto s = db_->Insert("rGP", std::move(row));
      if (!s.ok()) return s.status();
    }
  }
  return Status::OK();
}

Result<int64_t> GuardStore::Put(GuardedExpression ge) {
  ge.id = next_ge_id_++;
  Key key = Key::Make(ge.querier, ge.purpose, ge.table_name);

  // Invalidate previous guards of this key.
  auto old = memory_.find(key);
  if (old != memory_.end()) {
    for (const Guard& g : old->second.ge.guards) {
      guard_owner_.erase(g.id);
      std::lock_guard<std::mutex> lock(delta_mu_);
      delta_cache_.erase(g.id);
    }
  }

  for (Guard& guard : ge.guards) {
    guard.id = next_guard_id_++;
    guard_owner_[guard.id] = key;
  }
  SIEVE_RETURN_IF_ERROR(Persist(ge));
  int64_t id = ge.id;
  memory_[key] = Entry{std::move(ge), /*outdated=*/false};
  BumpVersion();
  key_versions_.Bump(key.Joined());
  return id;
}

const GuardedExpression* GuardStore::Get(const std::string& querier,
                                         const std::string& purpose,
                                         const std::string& table) const {
  auto it = memory_.find(Key::Make(querier, purpose, table));
  return it == memory_.end() ? nullptr : &it->second.ge;
}

bool GuardStore::IsOutdated(const std::string& querier,
                            const std::string& purpose,
                            const std::string& table) const {
  auto it = memory_.find(Key::Make(querier, purpose, table));
  if (it == memory_.end()) return true;  // never generated counts as stale
  return it->second.outdated;
}

void GuardStore::MarkOutdated(const std::string& querier,
                              const std::string& purpose,
                              const std::string& table) {
  Key key = Key::Make(querier, purpose, table);
  auto it = memory_.find(key);
  if (it != memory_.end()) it->second.outdated = true;
  // Bump even when the key has no guards yet: the policy insert that
  // triggered this call changes what a cached rewrite would produce.
  BumpVersion();
  key_versions_.Bump(key.Joined());
}

std::vector<GuardKey> GuardStore::MarkOutdatedWhere(
    const std::string& table,
    const std::function<bool(const GuardedExpression&)>& pred) {
  std::string table_lower = ToLower(table);
  std::vector<GuardKey> affected;
  bool bumped = false;
  for (auto& [key, entry] : memory_) {
    if (key.table != table_lower) continue;
    if (pred && !pred(entry.ge)) continue;
    entry.outdated = true;
    if (!bumped) {
      BumpVersion();
      bumped = true;
    }
    key_versions_.Bump(key.Joined());
    affected.push_back(GuardKey{key.querier, key.purpose, key.table});
  }
  return affected;
}

const Guard* GuardStore::FindGuard(int64_t guard_id) const {
  auto owner = guard_owner_.find(guard_id);
  if (owner == guard_owner_.end()) return nullptr;
  auto entry = memory_.find(owner->second);
  if (entry == memory_.end()) return nullptr;
  for (const Guard& g : entry->second.ge.guards) {
    if (g.id == guard_id) return &g;
  }
  return nullptr;
}

Result<const GuardStore::DeltaPartition*> GuardStore::GetDeltaPartition(
    int64_t guard_id) {
  // Called from the Δ UDF on every worker thread of a parallel scan; the
  // lock serializes the lazy build. DeltaPartition values live behind
  // unique_ptr, so the returned pointer stays valid across later inserts.
  std::lock_guard<std::mutex> lock(delta_mu_);
  auto cached = delta_cache_.find(guard_id);
  if (cached != delta_cache_.end()) return cached->second.get();

  const Guard* guard = FindGuard(guard_id);
  if (guard == nullptr) {
    return Status::NotFound(StrFormat("no guard with id %lld",
                                      static_cast<long long>(guard_id)));
  }
  auto partition = std::make_unique<DeltaPartition>();
  for (int64_t policy_id : guard->guard.policy_ids) {
    const Policy* policy = policies_->FindPolicy(policy_id);
    if (policy == nullptr) continue;  // revoked since generation
    partition->by_owner[policy->owner.ToString()].push_back(
        DeltaPolicyEntry{policy_id, policy->ObjectExpr()});
  }
  auto [it, inserted] = delta_cache_.emplace(guard_id, std::move(partition));
  (void)inserted;
  return it->second.get();
}

}  // namespace sieve
