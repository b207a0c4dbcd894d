#include "service/segment.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "service/fdbuf.h"

namespace msn::service {
namespace {

// --- little-endian packing --------------------------------------------

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

std::uint32_t LoadU32(const char* d) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(d[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t LoadU64(const char* d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(d[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bounds-checked sequential reader over a payload buffer.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t off = 0;

  bool U32(std::uint32_t* v) {
    if (size - off < 4) return false;
    *v = LoadU32(data + off);
    off += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (size - off < 8) return false;
    *v = LoadU64(data + off);
    off += 8;
    return true;
  }
  bool Bytes(std::size_t n, std::string* out) {
    if (size - off < n) return false;
    out->assign(data + off, n);
    off += n;
    return true;
  }
};

/// Reads up to n bytes (single attempt semantics with EINTR retry);
/// returns bytes read, 0 on EOF, -1 on error.
ssize_t ReadUpTo(int fd, char* data, std::size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

}  // namespace

std::uint32_t Crc32(const char* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string EncodeFramedRecord(const SegmentRecord& record) {
  std::string payload;
  payload.reserve(40 + record.text.size() +
                  24 * record.summary.pareto.size());
  PutU64(&payload, record.fingerprint.hi);
  PutU64(&payload, record.fingerprint.lo);
  PutU32(&payload, static_cast<std::uint32_t>(record.text.size()));
  payload.append(record.text);
  PutU64(&payload, record.summary.solutions_generated);
  PutU64(&payload, record.summary.max_set_size);
  PutU32(&payload,
         static_cast<std::uint32_t>(record.summary.pareto.size()));
  for (const TradeoffSummary& p : record.summary.pareto) {
    PutU64(&payload, DoubleBits(p.cost));
    PutU64(&payload, DoubleBits(p.ard_ps));
    PutU64(&payload, p.num_repeaters);
  }
  std::string framed;
  framed.reserve(kRecordFrameBytes + payload.size());
  PutU32(&framed, static_cast<std::uint32_t>(payload.size()));
  PutU32(&framed, Crc32(payload.data(), payload.size()));
  framed.append(payload);
  return framed;
}

bool DecodeRecordPayload(const char* data, std::size_t n,
                         SegmentRecord* out) {
  Cursor c{data, n};
  SegmentRecord rec;
  std::uint32_t text_len = 0;
  if (!c.U64(&rec.fingerprint.hi) || !c.U64(&rec.fingerprint.lo) ||
      !c.U32(&text_len) || !c.Bytes(text_len, &rec.text)) {
    return false;
  }
  std::uint32_t count = 0;
  if (!c.U64(&rec.summary.solutions_generated) ||
      !c.U64(&rec.summary.max_set_size) || !c.U32(&count)) {
    return false;
  }
  // Each point is 24 bytes; reject a count the buffer cannot hold before
  // reserving (adversarial length fields must not drive allocation).
  if ((n - c.off) / 24 < count) return false;
  rec.summary.pareto.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t cost = 0, ard = 0, reps = 0;
    if (!c.U64(&cost) || !c.U64(&ard) || !c.U64(&reps)) return false;
    rec.summary.pareto.push_back(
        {BitsDouble(cost), BitsDouble(ard),
         static_cast<std::size_t>(reps)});
  }
  if (c.off != n) return false;  // trailing bytes: not this format
  *out = std::move(rec);
  return true;
}

ReplayStats ReplaySegment(
    const std::string& path, std::size_t max_record_bytes,
    const std::function<void(SegmentRecord&&)>& handler) {
  ReplayStats rs;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return rs;
  rs.file_exists = true;
  char magic[kSegmentHeaderBytes];
  if (!ReadFully(fd, magic, sizeof(magic)) ||
      std::memcmp(magic, kSegmentMagic, sizeof(magic)) != 0) {
    ::close(fd);
    return rs;  // bad/short header: the whole file is reset
  }
  rs.header_ok = true;
  rs.valid_bytes = kSegmentHeaderBytes;
  std::string payload;
  for (;;) {
    char frame[kRecordFrameBytes];
    const ssize_t got = ReadUpTo(fd, frame, sizeof(frame));
    if (got == 0) break;  // clean end of file
    if (got < 0 || static_cast<std::size_t>(got) < sizeof(frame)) {
      rs.truncations = 1;  // frame cut mid-write
      break;
    }
    const std::uint32_t len = LoadU32(frame);
    const std::uint32_t crc = LoadU32(frame + 4);
    if (len == 0 || len > max_record_bytes) {
      // A zero or implausible length is indistinguishable from a
      // corrupted frame: everything from here on is untrusted.
      rs.truncations = 1;
      break;
    }
    payload.resize(len);
    if (!ReadFully(fd, payload.data(), len)) {
      rs.truncations = 1;  // payload cut mid-write
      break;
    }
    const std::uint64_t record_end =
        rs.valid_bytes + kRecordFrameBytes + len;
    if (Crc32(payload.data(), len) != crc) {
      ++rs.skipped;  // mid-file damage: skip, keep scanning
      rs.valid_bytes = record_end;
      continue;
    }
    SegmentRecord rec;
    if (!DecodeRecordPayload(payload.data(), len, &rec)) {
      ++rs.skipped;
      rs.valid_bytes = record_end;
      continue;
    }
    handler(std::move(rec));
    ++rs.replayed;
    rs.valid_bytes = record_end;
  }
  ::close(fd);
  return rs;
}

bool SegmentWriter::Open(const std::string& path,
                         std::uint64_t keep_bytes) {
  Close();
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return false;  // another live writer owns this segment
  }
  char magic[kSegmentHeaderBytes];
  const bool header_ok =
      ReadFully(fd, magic, sizeof(magic)) &&
      std::memcmp(magic, kSegmentMagic, sizeof(magic)) == 0;
  if (!header_ok) {
    // Fresh, short, or foreign file: restart it as an empty segment.
    if (::ftruncate(fd, 0) != 0 ||
        ::lseek(fd, 0, SEEK_SET) < 0 ||
        !WriteFully(fd, kSegmentMagic, sizeof(kSegmentMagic))) {
      ::close(fd);
      return false;
    }
    file_bytes_ = kSegmentHeaderBytes;
  } else {
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
      ::close(fd);
      return false;
    }
    file_bytes_ = static_cast<std::uint64_t>(size);
    if (keep_bytes >= kSegmentHeaderBytes && keep_bytes < file_bytes_) {
      // Cut the corrupt tail replay identified before appending again.
      if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0) {
        ::close(fd);
        return false;
      }
      file_bytes_ = keep_bytes;
    }
  }
  fd_ = fd;
  return true;
}

bool SegmentWriter::Append(const SegmentRecord& record) {
  if (fd_ < 0) return false;
  const std::string framed = EncodeFramedRecord(record);
  if (::lseek(fd_, static_cast<off_t>(file_bytes_), SEEK_SET) < 0) {
    return false;
  }
  if (!WriteFully(fd_, framed.data(), framed.size())) return false;
  file_bytes_ += framed.size();
  return true;
}

bool SegmentWriter::Sync() {
  if (fd_ < 0) return false;
  return ::fsync(fd_) == 0;
}

bool SegmentWriter::TruncateToHeader() {
  if (fd_ < 0) return false;
  if (::ftruncate(fd_, kSegmentHeaderBytes) != 0) return false;
  file_bytes_ = kSegmentHeaderBytes;
  return ::fsync(fd_) == 0;
}

void SegmentWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);  // releases the flock
    fd_ = -1;
  }
  file_bytes_ = 0;
}

}  // namespace msn::service
