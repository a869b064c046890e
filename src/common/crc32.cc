#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace vc {
namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial: kTables[0] is the
// classic byte-at-a-time table, and kTables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups fold eight input bytes
// at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Loads four bytes as a little-endian word. memcpy keeps unaligned input
// well-defined; the swap keeps big-endian hosts computing the same CRC.
inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = (word >> 24) | ((word >> 8) & 0xff00u) | ((word << 8) & 0xff0000u) |
           (word << 24);
  }
  return word;
}

}  // namespace

uint32_t Crc32(Slice data, uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ c;
    uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace vc
