#include "sieve/rewrite_cache.h"

#include <cctype>

namespace sieve {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  size_t i = 0;
  const size_t n = sql.size();
  bool pending_space = false;
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      pending_space = !out.empty();
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      // Block comment: stripped like the lexer strips it. If unterminated,
      // copy the tail verbatim so the lexer still reports the error on the
      // normalized text (normalization must not make invalid SQL valid).
      size_t start = i;
      i += 2;
      while (i + 1 < n && !(sql[i] == '*' && sql[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        if (pending_space) out += ' ';
        out.append(sql, start, std::string::npos);
        break;
      }
      i += 2;
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    if (c == '\'' || c == '"') {
      // Copy quoted strings verbatim, honoring doubled-quote escapes; the
      // lexer rejects unterminated literals later, so a lone quote just
      // passes through untouched.
      char quote = c;
      out += sql[i++];
      while (i < n) {
        out += sql[i];
        if (sql[i] == quote) {
          if (i + 1 < n && sql[i + 1] == quote) {
            out += sql[i + 1];
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::string RewriteCache::MakeKey(const std::string& querier,
                                  const std::string& purpose,
                                  const std::string& profile,
                                  const std::string& normalized_sql) {
  // '\x1f' (unit separator) cannot appear in identifiers or survive
  // normalization, so the concatenation is unambiguous.
  std::string key;
  key.reserve(querier.size() + purpose.size() + profile.size() +
              normalized_sql.size() + 3);
  key += querier;
  key += '\x1f';
  key += purpose;
  key += '\x1f';
  key += profile;
  key += '\x1f';
  key += normalized_sql;
  return key;
}

std::shared_ptr<const PreparedRewrite> RewriteCache::Lookup(
    const std::string& key, bool authoritative) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.rewrite->stale()) {
    // A counter the rewrite read has moved: drop it so the slot is
    // re-prepared against the current corpus.
    EraseLocked(it);
    ++stats_.invalidations;
    it = entries_.end();
  }
  if (it == entries_.end()) {
    if (authoritative) ++stats_.misses;
    return nullptr;
  }
  // Refresh recency: move to MRU position.
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.rewrite;
}

void RewriteCache::Insert(const std::string& key,
                          std::shared_ptr<const PreparedRewrite> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.rewrite = std::move(entry);
    return;
  }
  while (entries_.size() >= capacity_) {
    EraseLocked(entries_.find(lru_.back()));
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(entry), lru_.begin()});
}

RewriteCacheStats RewriteCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t RewriteCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void RewriteCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

void RewriteCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace sieve
