#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <streambuf>

namespace sysds {
namespace io {

namespace {

// Streambuf tee: forwards every byte to the underlying file stream while
// folding it into the running CRC, so large blocks are checksummed in one
// pass without a second read or an in-memory copy of the payload.
class ChecksummingBuf : public std::streambuf {
 public:
  explicit ChecksummingBuf(std::ofstream* out) : out_(out) {}

  uint32_t crc() const { return crc_.Value(); }
  int64_t bytes() const { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return ch;
    char c = static_cast<char>(ch);
    crc_.Update(&c, 1);
    ++bytes_;
    out_->put(c);
    return out_->good() ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    crc_.Update(s, static_cast<size_t>(n));
    bytes_ += n;
    out_->write(s, n);
    return out_->good() ? n : 0;
  }

 private:
  std::ofstream* out_;
  Crc32 crc_;
  int64_t bytes_ = 0;
};

// Opens `path` read-only; its size comes from fstat, so callers read it
// into one buffer of that size instead of growing one character by
// character.
Status OpenSized(const std::string& path, int* fd, int64_t* size) {
  *fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (*fd < 0) return IoError("cannot open '" + path + "' for reading");
  struct stat st;
  if (::fstat(*fd, &st) != 0) {
    ::close(*fd);
    *fd = -1;
    return IoError("cannot stat '" + path + "'");
  }
  *size = static_cast<int64_t>(st.st_size);
  return Status::Ok();
}

// read(2) until `n` bytes are in `dst` or the file ends. Returns the bytes
// read, or -1 on error.
int64_t ReadFull(int fd, char* dst, int64_t n) {
  int64_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, dst + done, static_cast<size_t>(n - done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (got == 0) break;
    done += got;
  }
  return done;
}

}  // namespace

Status WriteAtomic(const std::string& path,
                   const std::function<Status(std::ostream&)>& write_payload) {
  const std::string tmp = path + ".tmp";
  Status result;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("cannot open '" + tmp + "' for writing");
    ChecksummingBuf buf(&out);
    std::ostream payload_stream(&buf);
    result = write_payload(payload_stream);
    payload_stream.flush();
    if (result.ok() && !out) {
      result = IoError("write failed for '" + tmp + "'");
    }
    if (result.ok()) {
      // Footer bypasses the checksumming buf: it covers the payload only.
      uint64_t magic = kChecksumFooterMagic;
      int64_t size = buf.bytes();
      uint32_t crc = buf.crc(), pad = 0;
      out.write(reinterpret_cast<const char*>(&magic), 8);
      out.write(reinterpret_cast<const char*>(&size), 8);
      out.write(reinterpret_cast<const char*>(&crc), 4);
      out.write(reinterpret_cast<const char*>(&pad), 4);
      out.flush();
      if (!out) result = IoError("footer write failed for '" + tmp + "'");
    }
  }
  if (result.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    result = IoError("atomic rename failed for '" + path + "'");
  }
  if (!result.ok()) std::remove(tmp.c_str());
  return result;
}

VerifiedReader::~VerifiedReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status VerifiedReader::Open(const std::string& path) {
  path_ = path;
  int64_t file_size = 0;
  SYSDS_RETURN_IF_ERROR(OpenSized(path, &fd_, &file_size));
  if (file_size < kChecksumFooterSize) {
    return CorruptError("'" + path + "': too short for a checksum footer");
  }
  char footer[kChecksumFooterSize];
  if (::pread(fd_, footer, sizeof(footer), file_size - kChecksumFooterSize) !=
      static_cast<ssize_t>(sizeof(footer))) {
    return IoError("cannot read the checksum footer of '" + path + "'");
  }
  uint64_t magic = 0;
  int64_t size = 0;
  std::memcpy(&magic, footer, 8);
  std::memcpy(&size, footer + 8, 8);
  std::memcpy(&expected_crc_, footer + 16, 4);
  if (magic != kChecksumFooterMagic) {
    return CorruptError("'" + path + "': missing checksum footer (truncated?)");
  }
  payload_size_ = file_size - kChecksumFooterSize;
  if (size != payload_size_) {
    return CorruptError("'" + path + "': payload size mismatch (recorded " +
                        std::to_string(size) + ", actual " +
                        std::to_string(payload_size_) + ")");
  }
  return Status::Ok();
}

Status VerifiedReader::Read(void* dst, int64_t n) {
  if (n < 0 || n > Remaining()) {
    return CorruptError("'" + path_ +
                        "': payload shorter than its header claims");
  }
  char* p = static_cast<char*>(dst);
  while (n > 0) {
    const int64_t chunk = std::min(n, kChunkBytes);
    const int64_t got = ReadFull(fd_, p, chunk);
    if (got < 0) return IoError("read failed for '" + path_ + "'");
    if (got < chunk) {
      return CorruptError("'" + path_ + "': file shrank while being read");
    }
    crc_.Update(p, static_cast<size_t>(chunk));
    p += chunk;
    n -= chunk;
    offset_ += chunk;
  }
  return Status::Ok();
}

Status VerifiedReader::Verify() const {
  if (Remaining() != 0) {
    return CorruptError("'" + path_ + "': " + std::to_string(Remaining()) +
                        " payload bytes beyond what the header describes");
  }
  if (crc_.Value() != expected_crc_) {
    return CorruptError("'" + path_ + "': CRC32 mismatch (file is corrupt)");
  }
  return Status::Ok();
}

StatusOr<std::string> ReadVerified(const std::string& path) {
  VerifiedReader reader;
  SYSDS_RETURN_IF_ERROR(reader.Open(path));
  std::string payload(static_cast<size_t>(reader.PayloadSize()), '\0');
  SYSDS_RETURN_IF_ERROR(reader.Read(payload.data(), reader.PayloadSize()));
  SYSDS_RETURN_IF_ERROR(reader.Verify());
  return payload;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  int fd = -1;
  int64_t size = 0;
  SYSDS_RETURN_IF_ERROR(OpenSized(path, &fd, &size));
  std::string contents(static_cast<size_t>(size), '\0');
  const int64_t got = ReadFull(fd, contents.data(), size);
  ::close(fd);
  if (got < 0) return IoError("read failed for '" + path + "'");
  contents.resize(static_cast<size_t>(got));
  return contents;
}

}  // namespace io
}  // namespace sysds
