// Append-only on-disk segment of solution-cache records
// (docs/SERVICE.md "Persistence & recovery").
//
// File layout:
//
//   [8-byte magic "MSNSEG1\n"]
//   [record]*
//
// where each record is
//
//   u32 payload_len   (little-endian)
//   u32 crc32         (IEEE CRC-32 of the payload bytes)
//   payload:
//     u64 fingerprint.hi, u64 fingerprint.lo
//     u32 text_len, text bytes        (the canonical request text)
//     u64 solutions_generated, u64 max_set_size
//     u32 pareto_count, then per point:
//       u64 cost bits, u64 ard_ps bits (IEEE-754), u64 num_repeaters
//
// The format is deliberately dumb: fixed little-endian integers, length
// prefix, CRC.  A re-insert of a fingerprint appends a new record; replay
// is "last record wins".  Recovery is adversarial-input-safe: a record is
// delivered to the caller only when its length is sane, its CRC matches,
// and it decodes exactly — anything else is skipped (mid-file damage) or
// treated as a truncated tail (the normal crash shape: the file simply
// ends early, and `valid_bytes` marks where the intact prefix ends so the
// writer can cut the garbage before appending again).  Replay never
// throws on file content and never yields a corrupted record; serving
// still re-verifies canonical-text equality on every cache hit.
#ifndef MSN_SERVICE_SEGMENT_H
#define MSN_SERVICE_SEGMENT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/msri.h"
#include "service/canonical.h"

namespace msn::service {

/// The 8-byte file magic; the trailing byte doubles as a format version.
inline constexpr char kSegmentMagic[8] = {'M', 'S', 'N', 'S',
                                          'E', 'G', '1', '\n'};
inline constexpr std::size_t kSegmentHeaderBytes = sizeof(kSegmentMagic);
/// Bytes of framing (length + CRC) preceding every payload.
inline constexpr std::size_t kRecordFrameBytes = 8;

/// IEEE CRC-32 (the zlib polynomial), table-driven.
std::uint32_t Crc32(const char* data, std::size_t n);

/// One cache entry as stored on disk.
struct SegmentRecord {
  Fingerprint fingerprint;
  std::string text;  ///< Canonical request text (collision check).
  MsriSummary summary;

  bool operator==(const SegmentRecord&) const = default;
};

/// Serializes `record` with its frame (length + CRC + payload), ready to
/// append to a segment file.
std::string EncodeFramedRecord(const SegmentRecord& record);

/// Decodes one payload (no frame).  Returns false on any structural
/// mismatch (short buffer, inconsistent lengths, trailing bytes) without
/// touching `out` state the caller relies on.
bool DecodeRecordPayload(const char* data, std::size_t n,
                         SegmentRecord* out);

struct ReplayStats {
  std::uint64_t replayed = 0;        ///< Records delivered to the handler.
  std::uint64_t skipped = 0;         ///< CRC or decode failures skipped.
  std::uint64_t truncations = 0;     ///< 1 if a corrupt tail was cut short.
  bool header_ok = false;            ///< Magic matched (false: reset file).
  bool file_exists = false;
  /// End of the intact prefix: byte offset after the last record that was
  /// either delivered or cleanly skipped.  The writer truncates here
  /// before appending when `truncations` is set.
  std::uint64_t valid_bytes = 0;
};

/// Replays `path` front to back, invoking `handler(record)` for every
/// intact record in file order (oldest first; the caller implements
/// last-record-wins).  `max_record_bytes` bounds a credible payload
/// length: a larger length field is indistinguishable from corruption
/// and ends the replay as a truncated tail.  Never throws on file
/// content.
ReplayStats ReplaySegment(
    const std::string& path, std::size_t max_record_bytes,
    const std::function<void(SegmentRecord&&)>& handler);

/// Append handle on a segment file.  Open() validates or writes the
/// header; Append() writes one framed record (EINTR-safe, short-write
/// safe); Sync() fsyncs.  All methods report failure by return value —
/// persistence is best-effort and must never take the service down.
class SegmentWriter {
 public:
  SegmentWriter() = default;
  ~SegmentWriter() { Close(); }
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Opens `path` for appending, creating it (with header) if missing or
  /// empty, and truncating it to `keep_bytes` first when `keep_bytes` is
  /// non-zero (cutting a corrupt tail found by replay).  Takes a
  /// non-blocking flock: a second writer on the same live file fails.
  bool Open(const std::string& path, std::uint64_t keep_bytes = 0);

  bool Append(const SegmentRecord& record);
  bool Sync();
  /// Drops every record, leaving just the header (durable flush).
  bool TruncateToHeader();
  void Close();

  std::uint64_t FileBytes() const { return file_bytes_; }

 private:
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
};

}  // namespace msn::service

#endif  // MSN_SERVICE_SEGMENT_H
