// Sharded LRU cache of completed optimization results, keyed by
// canonical request fingerprints (docs/SERVICE.md).
//
// Design constraints, in order:
//   1. Never serve the wrong frontier.  A 128-bit fingerprint match is
//      not trusted alone: every entry keeps its canonical text and a hit
//      requires text equality too.  A real collision is counted and
//      degrades to a miss.
//   2. Bounded.  Each shard enforces its slice of the entry and byte
//      budgets with LRU eviction; the whole cache can never exceed
//      max_entries / max_bytes (plus one in-flight insertion per shard).
//   3. Concurrent.  N-way mutex striping by fingerprint: requests for
//      different nets contend only within their shard; there is no
//      global lock on the lookup/insert path (Snapshot sums shard
//      counters without stopping the world).
#ifndef MSN_SERVICE_CACHE_H
#define MSN_SERVICE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/msri.h"
#include "obs/stats.h"
#include "service/canonical.h"

namespace msn::service {

struct CacheConfig {
  /// Mutex stripes; rounded to a power of two, at least 1.  The
  /// constructor clamps the effective count so every shard's slice of
  /// the entry and byte budgets stays meaningful: more shards than
  /// budgeted entries (or fewer than ~4KB of byte budget per shard)
  /// would silently degenerate to one-entry shards that evict on every
  /// insert.
  std::size_t shards = 8;
  /// Whole-cache entry budget (split evenly across shards, min 1 each).
  std::size_t max_entries = 4096;
  /// Whole-cache byte budget for canonical texts + summaries.
  std::size_t max_bytes = 64u << 20;
};

/// Point-in-time counter snapshot, summed across shards.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t collisions = 0;  ///< Fingerprint matched, text did not.
  std::uint64_t flushes = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class SolutionCache {
 public:
  explicit SolutionCache(const CacheConfig& config);

  /// Returns the cached summary for `request`, refreshing its LRU
  /// position; nullopt on miss.  Counts exactly one hit or miss.
  std::optional<MsriSummary> Lookup(const CanonicalRequest& request);

  /// Inserts (or refreshes) the summary for `request`, then evicts LRU
  /// entries until the shard is back under its entry and byte budgets.
  void Insert(const CanonicalRequest& request, MsriSummary summary);

  /// Drops every entry (counters survive; flushes increments).
  void Flush();

  /// The byte charge an entry with this text/summary carries against
  /// the budget (texts + summaries + bookkeeping overhead).
  static std::size_t EntryCost(const std::string& text,
                               const MsriSummary& summary);

  CacheStats Snapshot() const;

  std::size_t NumShards() const { return shards_.size(); }
  const CacheConfig& Config() const { return config_; }

  /// Exports the snapshot as `service.cache.*` counters and values into
  /// a RunStats registry (the msn-service-stats-v3 building block).
  void ExportStats(obs::RunStats* registry) const;

 private:
  struct Entry {
    std::string text;  ///< Canonical text; the collision check.
    MsriSummary summary;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<Fingerprint, Entry>> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<Fingerprint, Entry>>::iterator>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t collisions = 0;
  };

  Shard& ShardFor(const Fingerprint& fp) {
    return *shards_[fp.hi & (shards_.size() - 1)];
  }
  static std::uint64_t IndexKey(const Fingerprint& fp) {
    return fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull);
  }
  void EvictOverBudgetLocked(Shard& shard);

  CacheConfig config_;
  std::size_t per_shard_entries_ = 0;
  std::size_t per_shard_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex flush_mu_;
  std::uint64_t flushes_ = 0;
};

}  // namespace msn::service

#endif  // MSN_SERVICE_CACHE_H
