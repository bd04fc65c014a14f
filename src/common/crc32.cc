#include "common/crc32.h"

#include <array>

namespace sysds {

namespace {

// Slicing-by-8 tables for the reflected polynomial, built at compile time.
// Row 0 is the classic byte-at-a-time table; row k maps a byte to its CRC
// contribution followed by k zero bytes, so eight input bytes fold with
// eight independent lookups instead of eight dependent ones. Byte-at-a-time
// measured ≈270 MB/s (150 ms per 40 MB spill restore) and dominated the
// restore path; slicing-by-8 runs several times faster with identical
// output, so every existing spill and checkpoint file still verifies.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeCrcTables();

// Little-endian 32-bit load; compilers fold it into one mov on x86/ARM.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::Update(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = state_;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = Load32(p) ^ c;
    const uint32_t hi = Load32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

}  // namespace sysds
