#ifndef SYSDS_IO_ATOMIC_FILE_H_
#define SYSDS_IO_ATOMIC_FILE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "common/crc32.h"
#include "common/status.h"

namespace sysds {
namespace io {

// Crash-safe durable files: every spill/checkpoint artifact is written
// through WriteAtomic (payload streamed to `<path>.tmp`, CRC-32 footer
// appended, then an atomic rename installs the final name) and read back
// through ReadVerified (footer checked before a single payload byte is
// parsed). A crash mid-write leaves at worst a stale `.tmp` alongside the
// previous intact version; a torn or bit-flipped file fails verification
// with StatusCode::kCorrupt — retryable per the fault-tolerance taxonomy —
// instead of being deserialized into garbage.

/// Footer magic trailing every checksummed file ("SYSDSCRC", little-endian).
constexpr uint64_t kChecksumFooterMagic = 0x4352435344535953ULL;

/// Bytes of (magic, payload_size, crc32, pad) appended after the payload.
constexpr int64_t kChecksumFooterSize = 8 + 8 + 4 + 4;

/// Streams the payload produced by `write_payload` into `path + ".tmp"`,
/// appends the checksum footer, flushes, and atomically renames onto
/// `path`. The callback writes the payload to the provided stream and may
/// fail; on any failure the temp file is removed and `path` is untouched.
Status WriteAtomic(const std::string& path,
                   const std::function<Status(std::ostream&)>& write_payload);

/// Verified streaming read of a file written by WriteAtomic, for payloads
/// parsed straight into their final storage. Open checks the footer (magic,
/// recorded payload size == file size - footer) before a payload byte is
/// read; Read copies the next payload bytes in chunks, folding each chunk
/// into the CRC while it is still in cache; Verify compares the CRC once
/// every payload byte was read. Bytes obtained through Read must not escape
/// to a caller before Verify returns Ok.
class VerifiedReader {
 public:
  VerifiedReader() = default;
  VerifiedReader(const VerifiedReader&) = delete;
  VerifiedReader& operator=(const VerifiedReader&) = delete;
  ~VerifiedReader();

  /// kIoError when the file cannot be opened; kCorrupt when it is too short
  /// for a footer, the magic is missing, or the recorded size disagrees.
  Status Open(const std::string& path);

  int64_t PayloadSize() const { return payload_size_; }
  int64_t Remaining() const { return payload_size_ - offset_; }

  /// Reads exactly `n` next payload bytes into `dst`. kCorrupt when fewer
  /// than `n` remain, kIoError when the read itself fails.
  Status Read(void* dst, int64_t n);

  /// kCorrupt unless every payload byte was read and the CRC matches.
  Status Verify() const;

  /// Payload bytes per read(2) and CRC fold: small enough that a chunk is
  /// still in L2 when the CRC reads it back.
  static constexpr int64_t kChunkBytes = 256 * 1024;

 private:
  int fd_ = -1;
  std::string path_;
  int64_t payload_size_ = 0;
  int64_t offset_ = 0;
  uint32_t expected_crc_ = 0;
  Crc32 crc_;
};

/// Reads the whole file, validates the checksum footer, and returns the
/// payload bytes (footer stripped): one buffer sized from fstat, filled by
/// a VerifiedReader. kCorrupt when the footer is missing, the recorded size
/// disagrees, or the CRC does not match; kIoError when the file cannot be
/// opened.
StatusOr<std::string> ReadVerified(const std::string& path);

/// Reads a whole (unchecksummed) file into one buffer sized from fstat,
/// with sized reads — the text readers' slurp.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace io
}  // namespace sysds

#endif  // SYSDS_IO_ATOMIC_FILE_H_
