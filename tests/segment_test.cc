// The src/service persistence layer (docs/SERVICE.md "Persistence &
// recovery"): segment record framing and CRC, adversarial-input replay
// (every truncation point, every single-bit flip), the segment writer's
// header/lock/truncate contracts, EINTR-safe fd I/O, and the
// PersistentCache warm-restart / durable-flush / last-record-wins
// behavior.
#include "service/fdbuf.h"
#include "service/persist.h"
#include "service/segment.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "service/cache.h"
#include "service/canonical.h"

namespace msn {
namespace {

using service::CacheConfig;
using service::CanonicalRequest;
using service::Crc32;
using service::DecodeRecordPayload;
using service::EncodeFramedRecord;
using service::Fingerprint;
using service::HashBytes;
using service::kSegmentHeaderBytes;
using service::kSegmentMagic;
using service::PersistConfig;
using service::PersistentCache;
using service::ReplaySegment;
using service::ReplayStats;
using service::SegmentRecord;
using service::SegmentWriter;
using service::SolutionCache;

/// A fresh private directory under the test temp root, removed on
/// destruction (tests in this binary can run concurrently under ctest).
struct ScopedDir {
  ScopedDir() {
    std::string tmpl = ::testing::TempDir() + "msn_segment_XXXXXX";
    MSN_CHECK(::mkdtemp(tmpl.data()) != nullptr);
    path = tmpl;
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

SegmentRecord MakeRecord(const std::string& text, double cost) {
  SegmentRecord rec;
  rec.fingerprint = HashBytes(text);
  rec.text = text;
  rec.summary.solutions_generated = 42;
  rec.summary.max_set_size = 7;
  rec.summary.pareto.push_back({cost, 100.0 - cost, 1});
  rec.summary.pareto.push_back({cost * 2, 50.0 - cost, 3});
  return rec;
}

CanonicalRequest RequestOf(const SegmentRecord& rec) {
  CanonicalRequest request;
  request.fingerprint = rec.fingerprint;
  request.text = rec.text;
  return request;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  MSN_CHECK(out.good());
}

/// Replays collecting every delivered record.
std::vector<SegmentRecord> ReplayAll(const std::string& path,
                                     ReplayStats* stats = nullptr) {
  std::vector<SegmentRecord> out;
  const ReplayStats rs = ReplaySegment(
      path, 64u << 20,
      [&out](SegmentRecord&& rec) {
        out.push_back(std::move(rec));
      });
  if (stats != nullptr) *stats = rs;
  return out;
}

// ---------------------------------------------------------------------
// Record framing.

TEST(SegmentRecord, Crc32MatchesReferenceVector) {
  // The canonical IEEE CRC-32 check value.
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(SegmentRecord, EncodeDecodeRoundTrip) {
  const SegmentRecord rec = MakeRecord("net v1\nS 0 0\n", 3.25);
  const std::string framed = EncodeFramedRecord(rec);
  ASSERT_GT(framed.size(), service::kRecordFrameBytes);
  SegmentRecord out;
  ASSERT_TRUE(DecodeRecordPayload(framed.data() + 8, framed.size() - 8,
                                  &out));
  EXPECT_EQ(out, rec);
}

TEST(SegmentRecord, DecodeRejectsStructuralDamage) {
  const SegmentRecord rec = MakeRecord("abc", 1.0);
  const std::string framed = EncodeFramedRecord(rec);
  const char* payload = framed.data() + 8;
  const std::size_t n = framed.size() - 8;
  SegmentRecord out;
  // Any strict prefix is a short buffer; any padded buffer has trailing
  // bytes; both must be rejected, never crash.
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_FALSE(DecodeRecordPayload(payload, k, &out));
  }
  std::string padded(payload, n);
  padded.push_back('\0');
  EXPECT_FALSE(DecodeRecordPayload(padded.data(), padded.size(), &out));
}

TEST(SegmentRecord, DecodeRejectsOversizedCountsWithoutAllocating) {
  // fingerprint + empty text + counters, then a pareto count far beyond
  // what the buffer holds: the adversarial-length guard must fire.
  std::string payload(16, '\0');           // fingerprint
  payload.append(4, '\0');                 // text_len = 0
  payload.append(16, '\0');                // counters
  payload.append({'\xff', '\xff', '\xff', '\x7f'});  // count
  SegmentRecord out;
  EXPECT_FALSE(DecodeRecordPayload(payload.data(), payload.size(), &out));
}

// ---------------------------------------------------------------------
// Replay recovery: every truncation point, every bit flip.

TEST(SegmentReplay, MissingFileAndBadHeader) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  ReplayStats rs;
  EXPECT_TRUE(ReplayAll(path, &rs).empty());
  EXPECT_FALSE(rs.file_exists);

  WriteFile(path, "BOGUS!!\n");
  EXPECT_TRUE(ReplayAll(path, &rs).empty());
  EXPECT_TRUE(rs.file_exists);
  EXPECT_FALSE(rs.header_ok);
}

TEST(SegmentReplay, EveryTruncationPointRecoversAPrefix) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  const std::vector<SegmentRecord> recs = {
      MakeRecord("alpha", 1.0), MakeRecord("beta", 2.0),
      MakeRecord("gamma", 3.0)};
  std::string file(kSegmentMagic, kSegmentHeaderBytes);
  std::vector<std::size_t> ends;  // file offset after each record
  for (const SegmentRecord& rec : recs) {
    file += EncodeFramedRecord(rec);
    ends.push_back(file.size());
  }
  for (std::size_t cut = 0; cut <= file.size(); ++cut) {
    WriteFile(path, file.substr(0, cut));
    ReplayStats rs;
    const std::vector<SegmentRecord> got = ReplayAll(path, &rs);
    // The recovered records are exactly the whole-record prefix.
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    ASSERT_EQ(got.size(), whole) << "cut=" << cut;
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(got[i], recs[i]);
    if (cut < kSegmentHeaderBytes) {
      EXPECT_FALSE(rs.header_ok) << "cut=" << cut;
    } else {
      EXPECT_TRUE(rs.header_ok);
      // A cut mid-record is reported so the writer can cut the tail; a
      // cut on a record (or header) boundary is a clean end of file.
      const bool clean = cut == kSegmentHeaderBytes ||
                         (whole > 0 && ends[whole - 1] == cut);
      EXPECT_EQ(rs.truncations, clean ? 0u : 1u) << "cut=" << cut;
      EXPECT_EQ(rs.valid_bytes,
                whole == 0 ? kSegmentHeaderBytes : ends[whole - 1]);
    }
  }
}

TEST(SegmentReplay, EveryBitFlipIsSkippedOrTruncatedNeverWrong) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  const std::vector<SegmentRecord> recs = {
      MakeRecord("alpha", 1.0), MakeRecord("beta", 2.0),
      MakeRecord("gamma", 3.0)};
  std::string file(kSegmentMagic, kSegmentHeaderBytes);
  for (const SegmentRecord& rec : recs) file += EncodeFramedRecord(rec);
  std::set<std::string> valid_texts;
  for (const SegmentRecord& rec : recs) valid_texts.insert(rec.text);

  for (std::size_t byte = 0; byte < file.size(); ++byte) {
    std::string damaged = file;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
    WriteFile(path, damaged);
    ReplayStats rs;
    const std::vector<SegmentRecord> got = ReplayAll(path, &rs);
    if (byte < kSegmentHeaderBytes) {
      EXPECT_FALSE(rs.header_ok);
      EXPECT_TRUE(got.empty());
      continue;
    }
    // Whatever survives must be a genuine record, and exactly the other
    // two can survive a flip confined to one record's bytes.
    EXPECT_LT(got.size(), recs.size()) << "byte=" << byte;
    for (const SegmentRecord& rec : got) {
      EXPECT_TRUE(valid_texts.count(rec.text)) << "byte=" << byte;
      SegmentRecord original;
      for (const SegmentRecord& r : recs) {
        if (r.text == rec.text) original = r;
      }
      EXPECT_EQ(rec, original) << "byte=" << byte;
    }
    EXPECT_GE(rs.skipped + rs.truncations, 1u) << "byte=" << byte;
  }
}

// ---------------------------------------------------------------------
// Segment writer.

TEST(SegmentWriter, CreatesHeaderAppendsAndReplays) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  const SegmentRecord rec = MakeRecord("hello", 1.0);
  {
    SegmentWriter writer;
    ASSERT_TRUE(writer.Open(path));
    EXPECT_EQ(writer.FileBytes(), kSegmentHeaderBytes);
    ASSERT_TRUE(writer.Append(rec));
    ASSERT_TRUE(writer.Sync());
  }
  ReplayStats rs;
  const std::vector<SegmentRecord> got = ReplayAll(path, &rs);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], rec);
  EXPECT_EQ(rs.truncations, 0u);
}

TEST(SegmentWriter, SecondWriterOnLiveFileFails) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  SegmentWriter first;
  ASSERT_TRUE(first.Open(path));
  SegmentWriter second;
  EXPECT_FALSE(second.Open(path));
  first.Close();
  EXPECT_TRUE(second.Open(path));
}

TEST(SegmentWriter, KeepBytesCutsCorruptTailBeforeAppending) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  const SegmentRecord good = MakeRecord("good", 1.0);
  std::string file(kSegmentMagic, kSegmentHeaderBytes);
  file += EncodeFramedRecord(good);
  const std::size_t valid = file.size();
  file += "partial garbage tail";
  WriteFile(path, file);

  SegmentWriter writer;
  ASSERT_TRUE(writer.Open(path, valid));
  EXPECT_EQ(writer.FileBytes(), valid);
  const SegmentRecord next = MakeRecord("next", 2.0);
  ASSERT_TRUE(writer.Append(next));
  writer.Close();

  const std::vector<SegmentRecord> got = ReplayAll(path);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], good);
  EXPECT_EQ(got[1], next);
}

TEST(SegmentWriter, TruncateToHeaderDropsEveryRecord) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  SegmentWriter writer;
  ASSERT_TRUE(writer.Open(path));
  ASSERT_TRUE(writer.Append(MakeRecord("a", 1.0)));
  ASSERT_TRUE(writer.TruncateToHeader());
  EXPECT_EQ(writer.FileBytes(), kSegmentHeaderBytes);
  ASSERT_TRUE(writer.Append(MakeRecord("b", 2.0)));
  writer.Close();
  const std::vector<SegmentRecord> got = ReplayAll(path);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].text, "b");
}

TEST(SegmentWriter, ForeignFileIsResetToEmptySegment) {
  ScopedDir dir;
  const std::string path = dir.path + "/seg";
  WriteFile(path, "not a segment at all, much longer than the magic");
  SegmentWriter writer;
  ASSERT_TRUE(writer.Open(path));
  EXPECT_EQ(writer.FileBytes(), kSegmentHeaderBytes);
  writer.Close();
  EXPECT_EQ(ReadFile(path),
            std::string(kSegmentMagic, kSegmentHeaderBytes));
}

// ---------------------------------------------------------------------
// EINTR-safe fd I/O (the server stream flush bugfix).

/// Scripted write fault: every other call raises EINTR, and successful
/// calls write at most 3 bytes (a stubborn short-writing fd).
int g_write_calls = 0;
ssize_t ShortEintrWrite(int fd, const void* buf, std::size_t n) {
  ++g_write_calls;
  if (g_write_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::write(fd, buf, std::min<std::size_t>(n, 3));
}

ssize_t BrokenWrite(int, const void*, std::size_t) {
  errno = EPIPE;
  return -1;
}

TEST(FdIo, WriteFullyRetriesEintrAndShortWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  g_write_calls = 0;
  ASSERT_TRUE(
      service::WriteFully(fds[1], msg.data(), msg.size(), ShortEintrWrite));
  EXPECT_GT(g_write_calls, 2);  // it really was fed 3 bytes at a time
  std::string got(msg.size(), '\0');
  ASSERT_TRUE(service::ReadFully(fds[0], got.data(), got.size()));
  EXPECT_EQ(got, msg);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FdIo, WriteFullyFailsOnHardError) {
  EXPECT_FALSE(service::WriteFully(1, "x", 1, BrokenWrite));
}

TEST(FdIo, StreamBufDeliversEveryByteThroughFaultyWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // A payload larger than the pipe's atomic write size, flushed through
  // the scripted 3-bytes-per-call EINTR-raising fd: the reader must see
  // every byte in order (the pre-fix loop dropped the unwritten suffix).
  std::string msg;
  for (int i = 0; i < 500; ++i) {
    msg += "response line ";
    msg += std::to_string(i);
    msg += "\n";
  }
  g_write_calls = 0;
  std::thread writer([&] {
    service::FdStreamBuf buf(fds[1], nullptr, ShortEintrWrite);
    std::ostream out(&buf);
    out << msg << std::flush;
    ::close(fds[1]);
  });
  std::string got(msg.size(), '\0');
  EXPECT_TRUE(service::ReadFully(fds[0], got.data(), got.size()));
  writer.join();
  EXPECT_EQ(got, msg);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------
// PersistentCache.

CacheConfig SmallCache() {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 64;
  cfg.max_bytes = 1u << 20;
  return cfg;
}

PersistConfig PersistIn(const std::string& dir) {
  PersistConfig cfg;
  cfg.dir = dir;
  return cfg;
}

TEST(PersistentCache, DisabledModeIsAPassThrough) {
  PersistentCache cache(SmallCache(), PersistConfig{});
  const SegmentRecord rec = MakeRecord("only in memory", 1.0);
  cache.Insert(RequestOf(rec), rec.summary);
  EXPECT_TRUE(cache.Lookup(RequestOf(rec)).has_value());
  cache.Sync();  // no-ops, must not hang
  const service::SegmentStats seg = cache.Segment();
  EXPECT_FALSE(seg.enabled);
  EXPECT_EQ(seg.appends, 0u);
  EXPECT_EQ(seg.file_bytes, 0u);
}

TEST(PersistentCache, WarmRestartServesPredecessorsInserts) {
  ScopedDir dir;
  const std::vector<SegmentRecord> recs = {
      MakeRecord("net one", 1.0), MakeRecord("net two", 2.0),
      MakeRecord("net three", 3.0)};
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    EXPECT_TRUE(cache.Segment().enabled);
    for (const SegmentRecord& rec : recs) {
      cache.Insert(RequestOf(rec), rec.summary);
    }
    cache.Sync();
    const service::SegmentStats seg = cache.Segment();
    EXPECT_EQ(seg.appends, recs.size());
    EXPECT_EQ(seg.append_errors, 0u);
    EXPECT_GT(seg.file_bytes, kSegmentHeaderBytes);
  }
  PersistentCache warmed(SmallCache(), PersistIn(dir.path));
  const service::SegmentStats seg = warmed.Segment();
  EXPECT_EQ(seg.replayed, recs.size());
  EXPECT_EQ(seg.skipped, 0u);
  EXPECT_EQ(seg.truncations, 0u);
  for (const SegmentRecord& rec : recs) {
    const auto hit = warmed.Lookup(RequestOf(rec));
    ASSERT_TRUE(hit.has_value()) << rec.text;
    EXPECT_EQ(*hit, rec.summary);
  }
  EXPECT_EQ(warmed.Snapshot().hits, recs.size());
}

TEST(PersistentCache, ReplayIsBudgetAwareNewestWin) {
  ScopedDir dir;
  std::vector<SegmentRecord> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(
        MakeRecord("net " + std::to_string(i), static_cast<double>(i)));
  }
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    for (const SegmentRecord& rec : recs) {
      cache.Insert(RequestOf(rec), rec.summary);
    }
  }
  // Restart with room for only 2 entries: the 2 newest must win.
  CacheConfig tiny = SmallCache();
  tiny.max_entries = 2;
  PersistentCache warmed(tiny, PersistIn(dir.path));
  EXPECT_EQ(warmed.Segment().replayed, recs.size());
  EXPECT_EQ(warmed.Snapshot().entries, 2u);
  EXPECT_TRUE(warmed.Lookup(RequestOf(recs[7])).has_value());
  EXPECT_TRUE(warmed.Lookup(RequestOf(recs[6])).has_value());
  EXPECT_FALSE(warmed.Lookup(RequestOf(recs[0])).has_value());
}

TEST(PersistentCache, OversizedRecordIsSkippedOnWarm) {
  ScopedDir dir;
  const SegmentRecord small = MakeRecord("small", 1.0);
  const SegmentRecord huge = MakeRecord(std::string(8192, 'x'), 2.0);
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    cache.Insert(RequestOf(small), small.summary);
    cache.Insert(RequestOf(huge), huge.summary);
  }
  CacheConfig tiny = SmallCache();
  tiny.max_bytes = 4096;  // the huge record can never fit
  PersistentCache warmed(tiny, PersistIn(dir.path));
  const service::SegmentStats seg = warmed.Segment();
  EXPECT_EQ(seg.replayed, 1u);
  EXPECT_EQ(seg.skipped, 1u);
  EXPECT_TRUE(warmed.Lookup(RequestOf(small)).has_value());
  EXPECT_FALSE(warmed.Lookup(RequestOf(huge)).has_value());
}

TEST(PersistentCache, FlushIsDurableAcrossRestart) {
  ScopedDir dir;
  const SegmentRecord rec = MakeRecord("flushed", 1.0);
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    cache.Insert(RequestOf(rec), rec.summary);
    cache.Flush();
    EXPECT_FALSE(cache.Lookup(RequestOf(rec)).has_value());
    EXPECT_EQ(cache.Segment().file_bytes, kSegmentHeaderBytes);
  }
  PersistentCache warmed(SmallCache(), PersistIn(dir.path));
  EXPECT_EQ(warmed.Segment().replayed, 0u);
  EXPECT_FALSE(warmed.Lookup(RequestOf(rec)).has_value());
}

TEST(PersistentCache, SecondServerOnSameDirThrows) {
  ScopedDir dir;
  PersistentCache first(SmallCache(), PersistIn(dir.path));
  EXPECT_THROW(PersistentCache(SmallCache(), PersistIn(dir.path)),
               CheckError);
}

TEST(PersistentCache, SupersedingRecordWinsOnReplay) {
  ScopedDir dir;
  // Same fingerprint and text, different frontier: the second insert
  // appends a record that supersedes the first.
  const SegmentRecord first = MakeRecord("rewritten", 1.0);
  const SegmentRecord second = MakeRecord("rewritten", 2.0);
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    cache.Insert(RequestOf(first), first.summary);
    cache.Insert(RequestOf(second), second.summary);
  }
  PersistentCache warmed(SmallCache(), PersistIn(dir.path));
  EXPECT_EQ(warmed.Segment().replayed, 2u);  // both records stay on disk
  EXPECT_EQ(warmed.Snapshot().entries, 1u);
  const auto hit = warmed.Lookup(RequestOf(second));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, second.summary);
}

TEST(PersistentCache, CorruptSegmentBitFlipRecoversCleanly) {
  ScopedDir dir;
  const std::vector<SegmentRecord> recs = {
      MakeRecord("first", 1.0), MakeRecord("second", 2.0),
      MakeRecord("third", 3.0)};
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    for (const SegmentRecord& rec : recs) {
      cache.Insert(RequestOf(rec), rec.summary);
    }
  }
  // Flip one bit in the middle record's payload.
  const std::string path = PersistentCache::SegmentPath(dir.path);
  std::string bytes = ReadFile(path);
  const std::size_t mid =
      kSegmentHeaderBytes + EncodeFramedRecord(recs[0]).size() + 12;
  ASSERT_LT(mid, bytes.size());
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x01);
  WriteFile(path, bytes);

  PersistentCache warmed(SmallCache(), PersistIn(dir.path));
  const service::SegmentStats seg = warmed.Segment();
  EXPECT_EQ(seg.replayed, 2u);
  EXPECT_EQ(seg.skipped, 1u);
  EXPECT_TRUE(warmed.Lookup(RequestOf(recs[0])).has_value());
  EXPECT_FALSE(warmed.Lookup(RequestOf(recs[1])).has_value());
  EXPECT_TRUE(warmed.Lookup(RequestOf(recs[2])).has_value());
  // And the survivor still answers with the exact original summary.
  EXPECT_EQ(*warmed.Lookup(RequestOf(recs[2])), recs[2].summary);
}

TEST(PersistentCache, TruncatedTailIsCutAndAppendsResume) {
  ScopedDir dir;
  const SegmentRecord keep = MakeRecord("kept", 1.0);
  const SegmentRecord lost = MakeRecord("lost mid-crash", 2.0);
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    cache.Insert(RequestOf(keep), keep.summary);
    cache.Insert(RequestOf(lost), lost.summary);
  }
  // Simulate a crash mid-append: chop the last 5 bytes.
  const std::string path = PersistentCache::SegmentPath(dir.path);
  std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() - 5));

  const SegmentRecord fresh = MakeRecord("fresh", 3.0);
  {
    PersistentCache warmed(SmallCache(), PersistIn(dir.path));
    const service::SegmentStats seg = warmed.Segment();
    EXPECT_EQ(seg.replayed, 1u);
    EXPECT_EQ(seg.truncations, 1u);
    EXPECT_TRUE(warmed.Lookup(RequestOf(keep)).has_value());
    EXPECT_FALSE(warmed.Lookup(RequestOf(lost)).has_value());
    warmed.Insert(RequestOf(fresh), fresh.summary);
  }
  // The cut tail must not shadow the record appended after it.
  PersistentCache again(SmallCache(), PersistIn(dir.path));
  EXPECT_EQ(again.Segment().replayed, 2u);
  EXPECT_TRUE(again.Lookup(RequestOf(keep)).has_value());
  EXPECT_TRUE(again.Lookup(RequestOf(fresh)).has_value());
}

TEST(PersistentCache, ForeignSegmentFileIsResetNotTrusted) {
  ScopedDir dir;
  const std::string path = PersistentCache::SegmentPath(dir.path);
  std::filesystem::create_directories(dir.path);
  WriteFile(path, "some other tool's file\n");
  const SegmentRecord rec = MakeRecord("after reset", 1.0);
  {
    PersistentCache cache(SmallCache(), PersistIn(dir.path));
    EXPECT_EQ(cache.Segment().header_resets, 1u);
    EXPECT_EQ(cache.Segment().replayed, 0u);
    cache.Insert(RequestOf(rec), rec.summary);
  }
  PersistentCache warmed(SmallCache(), PersistIn(dir.path));
  EXPECT_EQ(warmed.Segment().replayed, 1u);
  EXPECT_TRUE(warmed.Lookup(RequestOf(rec)).has_value());
}

}  // namespace
}  // namespace msn
