#include "service/cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace msn::service {
namespace {

/// Shard-count ceiling: striping past this buys nothing and the naive
/// round-up loop would overflow for adversarially huge requests.
constexpr std::size_t kMaxShards = std::size_t{1} << 16;
/// Minimum byte-budget slice per shard; splitting finer than this turns
/// every shard into a single-entry cache that evicts on each insert.
constexpr std::size_t kMinShardBytes = 4096;

std::size_t RoundUpPowerOfTwo(std::size_t n) {
  // Caller clamps n <= kMaxShards, so the shift cannot overflow.
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t FloorPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p <= n / 2) p <<= 1;
  return p;
}

}  // namespace

std::size_t SolutionCache::EntryCost(const std::string& text,
                                     const MsriSummary& summary) {
  // Canonical text + summary heap + bookkeeping (list node, map slot).
  return text.size() + summary.ApproxBytes() + 128;
}

SolutionCache::SolutionCache(const CacheConfig& config) : config_(config) {
  MSN_CHECK_MSG(config.max_entries >= 1, "cache max_entries must be >= 1");
  MSN_CHECK_MSG(config.max_bytes >= 1, "cache max_bytes must be >= 1");
  // Clamp the stripe count to what the budgets can feed: never more
  // shards than budgeted entries, and never slices under kMinShardBytes
  // (a config like max_bytes < shards used to hand every shard a ~1-byte
  // budget, evicting everything but the newest entry).
  std::size_t n = RoundUpPowerOfTwo(
      std::clamp<std::size_t>(config.shards, 1, kMaxShards));
  n = std::min(n, FloorPowerOfTwo(config.max_entries));
  n = std::min(n, FloorPowerOfTwo(std::max<std::size_t>(
                      1, config.max_bytes / kMinShardBytes)));
  config_.shards = n;
  per_shard_entries_ = std::max<std::size_t>(1, config.max_entries / n);
  per_shard_bytes_ = std::max<std::size_t>(1, config.max_bytes / n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<MsriSummary> SolutionCache::Lookup(
    const CanonicalRequest& request) {
  Shard& shard = ShardFor(request.fingerprint);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(IndexKey(request.fingerprint));
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  const auto entry_it = it->second;
  if (entry_it->first != request.fingerprint ||
      entry_it->second.text != request.text) {
    // 64-bit index-key or full-fingerprint collision: never serve it.
    ++shard.collisions;
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
  return entry_it->second.summary;
}

void SolutionCache::Insert(const CanonicalRequest& request,
                           MsriSummary summary) {
  Shard& shard = ShardFor(request.fingerprint);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const std::uint64_t key = IndexKey(request.fingerprint);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh (same request re-inserted) or collision takeover (a
    // different request hashing to the same slot: latest wins, the old
    // entry could never be served anyway).
    auto entry_it = it->second;
    if (entry_it->first != request.fingerprint ||
        entry_it->second.text != request.text) {
      ++shard.collisions;
    }
    shard.bytes -= entry_it->second.bytes;
    entry_it->first = request.fingerprint;
    entry_it->second.text = request.text;
    entry_it->second.summary = std::move(summary);
    entry_it->second.bytes =
        EntryCost(entry_it->second.text, entry_it->second.summary);
    shard.bytes += entry_it->second.bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
    EvictOverBudgetLocked(shard);
    return;
  }
  Entry entry;
  entry.text = request.text;
  entry.summary = std::move(summary);
  entry.bytes = EntryCost(entry.text, entry.summary);
  shard.bytes += entry.bytes;
  shard.lru.emplace_front(request.fingerprint, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  ++shard.insertions;
  EvictOverBudgetLocked(shard);
}

void SolutionCache::EvictOverBudgetLocked(Shard& shard) {
  // Keep the newest entry even when it alone exceeds the byte budget —
  // an oversized frontier is still worth one slot.
  while (shard.lru.size() > 1 &&
         (shard.lru.size() > per_shard_entries_ ||
          shard.bytes > per_shard_bytes_)) {
    const auto victim = std::prev(shard.lru.end());
    shard.bytes -= victim->second.bytes;
    shard.index.erase(IndexKey(victim->first));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void SolutionCache::Flush() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
  const std::lock_guard<std::mutex> lock(flush_mu_);
  ++flushes_;
}

CacheStats SolutionCache::Snapshot() const {
  CacheStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.insertions += shard->insertions;
    stats.collisions += shard->collisions;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  const std::lock_guard<std::mutex> lock(flush_mu_);
  stats.flushes = flushes_;
  return stats;
}

void SolutionCache::ExportStats(obs::RunStats* registry) const {
  const CacheStats stats = Snapshot();
  registry->GetCounter("service.cache.hits").Add(stats.hits);
  registry->GetCounter("service.cache.misses").Add(stats.misses);
  registry->GetCounter("service.cache.evictions").Add(stats.evictions);
  registry->GetCounter("service.cache.insertions").Add(stats.insertions);
  registry->GetCounter("service.cache.collisions").Add(stats.collisions);
  registry->GetCounter("service.cache.flushes").Add(stats.flushes);
  registry->SetValue("service.cache.entries",
                     static_cast<double>(stats.entries));
  registry->SetValue("service.cache.bytes",
                     static_cast<double>(stats.bytes));
  registry->SetValue("service.cache.max_entries",
                     static_cast<double>(config_.max_entries));
  registry->SetValue("service.cache.max_bytes",
                     static_cast<double>(config_.max_bytes));
  registry->SetValue("service.cache.shards",
                     static_cast<double>(shards_.size()));
}

}  // namespace msn::service
