#ifndef SIEVE_COMMON_VERSION_COUNTER_H_
#define SIEVE_COMMON_VERSION_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

namespace sieve {

/// A monotonic mutation counter. It stays at one address for its owner's
/// lifetime, so a reader may keep a pointer to it and later compare it
/// against a remembered value without any lookup or lock.
using VersionCounter = std::atomic<uint64_t>;

/// One remembered counter value: `moved()` once the counter has been
/// bumped since.
struct VersionSnapshot {
  const VersionCounter* counter = nullptr;
  uint64_t seen = 0;

  static VersionSnapshot Of(const VersionCounter& c) { return {&c, c.load()}; }
  bool moved() const { return counter->load() != seen; }
};

/// Keyed VersionCounters, created at 0 on first use and never erased
/// (unordered_map keeps element addresses stable across rehashes).
/// Creating and bumping need the owner's writer exclusion; only the
/// counters themselves may be read concurrently.
class VersionCounters {
 public:
  const VersionCounter& Get(const std::string& key) { return counters_[key]; }
  void Bump(const std::string& key) { counters_[key].fetch_add(1); }

 private:
  std::unordered_map<std::string, VersionCounter> counters_;
};

}  // namespace sieve

#endif  // SIEVE_COMMON_VERSION_COUNTER_H_
