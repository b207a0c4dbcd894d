#include "service/persist.h"

#include <filesystem>
#include <utility>

#include "common/check.h"

namespace msn::service {

std::string PersistentCache::SegmentPath(const std::string& dir) {
  return dir + "/cache.msnseg";
}

PersistentCache::PersistentCache(const CacheConfig& cache_config,
                                 const PersistConfig& persist_config)
    : cache_(cache_config), pconfig_(persist_config) {
  if (pconfig_.dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(pconfig_.dir, ec);
  MSN_CHECK_MSG(!ec, "cannot create cache dir '" << pconfig_.dir << "': "
                                                 << ec.message());
  WarmFromSegment();
  enabled_ = true;
  counters_.enabled = true;
  worker_ = std::thread([this] { WriterLoop(); });
}

PersistentCache::~PersistentCache() {
  if (!enabled_) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();  // drains and fsyncs before exiting
}

void PersistentCache::WarmFromSegment() {
  const std::string path = SegmentPath(pconfig_.dir);
  const ReplayStats rs = ReplaySegment(
      path, pconfig_.max_record_bytes,
      [this](SegmentRecord&& rec) {
        // A record bigger than the whole cache budget could never be
        // kept; skip it (it stays on disk until the next flush).
        if (SolutionCache::EntryCost(rec.text, rec.summary) >
            cache_.Config().max_bytes) {
          ++counters_.skipped;
          return;
        }
        CanonicalRequest request;
        request.fingerprint = rec.fingerprint;
        request.text = std::move(rec.text);
        // Oldest-first insertion order: LRU eviction under the budget
        // keeps the newest replayed records, and a later record of the
        // same fingerprint replaces an earlier one (last record wins).
        cache_.Insert(request, std::move(rec.summary));
        ++counters_.replayed;
      });
  counters_.skipped += rs.skipped;
  counters_.truncations += rs.truncations;
  if (rs.file_exists && !rs.header_ok) ++counters_.header_resets;
  const std::uint64_t keep =
      rs.truncations > 0 ? rs.valid_bytes : std::uint64_t{0};
  MSN_CHECK_MSG(writer_.Open(path, keep),
                "cannot open cache segment '"
                    << path << "' (already locked by another server?)");
  counters_.file_bytes = writer_.FileBytes();
}

void PersistentCache::Insert(const CanonicalRequest& request,
                             MsriSummary summary) {
  if (!enabled_) {
    cache_.Insert(request, std::move(summary));
    return;
  }
  Op op;
  op.record.fingerprint = request.fingerprint;
  op.record.text = request.text;
  op.record.summary = summary;  // copy: the cache takes the original
  cache_.Insert(request, std::move(summary));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(op));
  }
  work_cv_.notify_all();
}

void PersistentCache::Flush() {
  cache_.Flush();
  if (!enabled_) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();  // pending appends are part of what's being flushed
    Op op;
    op.truncate = true;
    queue_.push_back(std::move(op));
  }
  work_cv_.notify_all();
  Sync();  // flushed entries must not resurrect after a crash
}

void PersistentCache::Sync() {
  if (!enabled_) return;
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_all();
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && !busy_ && !dirty_; });
}

void PersistentCache::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      Op op = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;  // Sync must not observe "idle" mid-append.
      lock.unlock();
      // File I/O off the lock: inserts never wait on the disk.
      if (op.truncate) {
        writer_.TruncateToHeader();
        lock.lock();
        dirty_ = false;  // TruncateToHeader fsyncs
      } else {
        const bool ok = writer_.Append(op.record);
        lock.lock();
        if (ok) {
          ++counters_.appends;
          dirty_ = true;
        } else {
          ++counters_.append_errors;  // disk trouble: keep serving
        }
      }
      counters_.file_bytes = writer_.FileBytes();
      busy_ = false;
      continue;
    }
    if (dirty_) {
      lock.unlock();
      writer_.Sync();
      lock.lock();
      dirty_ = false;
      continue;
    }
    idle_cv_.notify_all();
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

SegmentStats PersistentCache::Segment() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void PersistentCache::ExportStats(obs::RunStats* registry) const {
  cache_.ExportStats(registry);
  const SegmentStats seg = Segment();
  registry->GetCounter("service.segment.appends").Add(seg.appends);
  registry->GetCounter("service.segment.append_errors")
      .Add(seg.append_errors);
  registry->GetCounter("service.segment.replayed").Add(seg.replayed);
  registry->GetCounter("service.segment.skipped").Add(seg.skipped);
  registry->GetCounter("service.segment.truncations").Add(seg.truncations);
  registry->GetCounter("service.segment.header_resets")
      .Add(seg.header_resets);
  registry->SetValue("service.segment.enabled", seg.enabled ? 1.0 : 0.0);
  registry->SetValue("service.segment.file_bytes",
                     static_cast<double>(seg.file_bytes));
}

}  // namespace msn::service
