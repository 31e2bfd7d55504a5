#ifndef SIEVE_SIEVE_REWRITE_CACHE_H_
#define SIEVE_SIEVE_REWRITE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/version_counter.h"
#include "parser/ast.h"
#include "sieve/rewriter.h"

namespace sieve {

/// Whitespace-normalizes SQL for cache keying: runs of whitespace outside
/// quoted strings collapse to one space, leading/trailing whitespace is
/// trimmed, `--` line comments are dropped. Case is deliberately preserved
/// — folding it would conflate queries that differ only in string-literal
/// case; a differently-cased keyword merely misses the cache.
std::string NormalizeSql(const std::string& sql);

/// One cached, immutable rewrite: everything a session needs to execute a
/// prepared query without touching the rewriter again. `stmt` is a shared
/// template (it may contain ParameterExpr placeholders) — executions must
/// Clone() it and bind the clone; nothing may mutate it in place.
///
/// Validity travels with the entry: `versions` remembers, right after the
/// rewrite, every version counter the rewrite depended on — for each
/// dependency table the grant keys GrantKeysFor(querier) reaches, the
/// querier's guard key, the table's protection counter, plus the policy
/// store's reload counter. The entry is stale once any of them has moved;
/// a PreparedQuery holding it re-prepares on its next Execute, while
/// entries whose counters did not move keep executing untouched. The
/// counters belong to the middleware's stores, so an entry may only be
/// checked while its middleware is alive.
struct PreparedRewrite {
  std::string normalized_sql;            ///< cache-key form of the input
  SelectStmtPtr stmt;                    ///< rewritten statement template
  std::string rewritten_sql;             ///< rendered SQL of `stmt`
  std::vector<TableRewriteInfo> tables;  ///< per-table rewrite diagnostics
  bool default_denied = false;
  /// Parameter signature of the *original* query, in slot order: the
  /// lower-cased name for `:name` slots, "" for positional `?`.
  std::vector<std::string> params;
  /// Lower-cased base tables the original statement reads, including those
  /// read by its own scalar subqueries (CollectReferencedTables).
  std::vector<std::string> dep_tables;
  /// Counter values the rewrite was produced under (see above).
  std::vector<VersionSnapshot> versions;

  /// True once a policy, guard or protection status this rewrite read has
  /// changed. Lock-free; safe to call from any thread.
  bool stale() const {
    for (const VersionSnapshot& v : versions) {
      if (v.moved()) return true;
    }
    return false;
  }
};

/// Cumulative counters of one RewriteCache (snapshot semantics).
struct RewriteCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  ///< entries found stale at lookup (and dropped)
  uint64_t evictions = 0;      ///< entries dropped by LRU capacity pressure

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Shared, lock-protected cache of prepared rewrites keyed by
/// (querier, purpose, engine profile, normalized SQL). Nothing pushes
/// invalidations into it: every Lookup validates the entry it finds
/// (PreparedRewrite::stale) and drops it as a miss when a counter it
/// depends on has moved, so unaffected queriers' rewrites keep hitting
/// through sustained policy churn. Capacity is bounded with true LRU
/// eviction (a lookup refreshes recency; the least recently used entry is
/// evicted at capacity). Eviction needs no special case: a holder of an
/// evicted entry validates it by its own snapshot like any other.
///
/// Threading: all methods are safe to call concurrently; returned entries
/// are immutable shared_ptrs that stay valid after eviction.
class RewriteCache {
 public:
  explicit RewriteCache(size_t capacity = kMaxEntries)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static std::string MakeKey(const std::string& querier,
                             const std::string& purpose,
                             const std::string& profile,
                             const std::string& normalized_sql);

  /// Returns the entry for `key` if present and not stale, refreshing its
  /// LRU recency; a stale entry is erased and counted in `invalidations`.
  /// `authoritative` only controls miss accounting: the optimistic
  /// pre-lock probe passes false so its miss is not counted (the
  /// authoritative retry right after counts it). A probe hit is only a
  /// hint — Execute re-validates the entry under the middleware's shared
  /// state lock before running it.
  std::shared_ptr<const PreparedRewrite> Lookup(const std::string& key,
                                                bool authoritative = true);

  /// Inserts `entry` (replacing any entry under `key`). At capacity the
  /// least recently used entry is evicted first.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedRewrite> entry);

  /// Upper bound on cached rewrites. A one-shot Execute path with
  /// inlined literals creates one entry per distinct SQL text; without a
  /// bound a long-lived server under a stable policy corpus would grow
  /// without limit.
  static constexpr size_t kMaxEntries = 1024;

  RewriteCacheStats stats() const;
  size_t size() const;
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const PreparedRewrite> rewrite;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  // Requires mu_ held.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  /// LRU order, most recent first; holds cache keys.
  std::list<std::string> lru_;
  RewriteCacheStats stats_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_REWRITE_CACHE_H_
