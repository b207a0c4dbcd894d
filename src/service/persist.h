// Crash-safe persistence for the solution cache (docs/SERVICE.md
// "Persistence & recovery").
//
// PersistentCache layers an append-only on-disk segment (segment.h)
// under the in-memory SolutionCache:
//
//   * Inserts are write-behind: the in-memory insert returns
//     immediately and a dedicated writer thread appends the record to
//     the segment; Sync() drains the queue and fsyncs (the server syncs
//     on stats, flush, and shutdown).
//   * Startup replays the segment to warm the LRU, oldest record first,
//     so budget eviction keeps the newest records.  Replay is
//     adversarial-input-safe: a bad header resets the file, a corrupt
//     CRC or undecodable payload is skipped, a truncated tail is cut
//     before appending resumes, and a record larger than the cache's
//     whole byte budget is skipped — each with a counted warning, never
//     a crash.  A warmed entry still verifies canonical-text equality
//     on every hit, so a wrong frontier can never be served.
//   * A re-insert of a fingerprint appends a new record that supersedes
//     the old one (last record wins on replay).  Superseded and skipped
//     records stay in the file until a flush or the removal of the
//     directory; nothing rewrites the segment in place.
//   * Flush() drops the in-memory entries AND truncates the segment —
//     durably, so a flushed entry cannot resurrect on restart.
//
// With an empty `dir` the layer is a pass-through around SolutionCache
// (no thread, no file).  One live server per cache dir: the segment is
// flock'd and a second opener fails construction.
#ifndef MSN_SERVICE_PERSIST_H
#define MSN_SERVICE_PERSIST_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/stats.h"
#include "service/cache.h"
#include "service/segment.h"

namespace msn::service {

struct PersistConfig {
  /// Directory holding the segment; empty disables persistence.
  std::string dir;
  /// Replay length-field sanity bound; larger is treated as corruption.
  std::size_t max_record_bytes = 64u << 20;
};

/// Point-in-time persistence counters (all zero when disabled).
struct SegmentStats {
  std::uint64_t appends = 0;        ///< Records written behind inserts.
  std::uint64_t append_errors = 0;  ///< Failed/oversized appends (kept serving).
  std::uint64_t replayed = 0;       ///< Records warmed into the LRU at startup.
  std::uint64_t skipped = 0;        ///< Corrupt/oversized records not warmed.
  std::uint64_t truncations = 0;    ///< Corrupt tails cut at startup.
  std::uint64_t header_resets = 0;  ///< Bad-magic files restarted empty.
  std::uint64_t file_bytes = 0;     ///< Segment size, header included.
  bool enabled = false;
};

class PersistentCache {
 public:
  /// Throws CheckError when `persist.dir` is set but unusable (cannot
  /// create, or another live server holds the segment lock).
  PersistentCache(const CacheConfig& cache_config,
                  const PersistConfig& persist_config);
  ~PersistentCache();
  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  std::optional<MsriSummary> Lookup(const CanonicalRequest& request) {
    return cache_.Lookup(request);
  }
  /// In-memory insert plus a write-behind segment append.
  void Insert(const CanonicalRequest& request, MsriSummary summary);
  /// Drops every in-memory entry and durably truncates the segment.
  void Flush();
  /// Drains the write-behind queue and fsyncs the segment.
  void Sync();

  CacheStats Snapshot() const { return cache_.Snapshot(); }
  SegmentStats Segment() const;
  std::size_t NumShards() const { return cache_.NumShards(); }
  const CacheConfig& Config() const { return cache_.Config(); }

  /// Cache counters plus `service.segment.*` instruments.
  void ExportStats(obs::RunStats* registry) const;

  static std::string SegmentPath(const std::string& dir);

 private:
  struct Op {
    bool truncate = false;
    SegmentRecord record;  ///< Valid when !truncate.
  };

  void WarmFromSegment();
  void WriterLoop();

  SolutionCache cache_;
  PersistConfig pconfig_;
  bool enabled_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wakes the writer thread.
  std::condition_variable idle_cv_;  ///< Wakes Sync() waiters.
  std::deque<Op> queue_;
  bool stop_ = false;
  bool busy_ = false;   ///< A popped op is mid-I/O (Sync must wait).
  bool dirty_ = false;  ///< Appends since the last fsync.
  SegmentStats counters_;

  /// Writer-thread-only after construction (no lock needed there).
  SegmentWriter writer_;

  std::thread worker_;
};

}  // namespace msn::service

#endif  // MSN_SERVICE_PERSIST_H
