#include "recovery/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace divexp {
namespace recovery {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, which lets slicing-by-8 fold eight
/// input bytes with eight independent lookups.
constexpr Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = MakeTables();

/// A linear operator on 32-bit CRC states: column k is the image of bit k.
using Gf2Matrix = std::array<uint32_t, 32>;

uint32_t Gf2Times(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (size_t k = 0; vec != 0; vec >>= 1, ++k) {
    if ((vec & 1u) != 0) sum ^= mat[k];
  }
  return sum;
}

Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (size_t k = 0; k < 32; ++k) square[k] = Gf2Times(mat, mat[k]);
  return square;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Slicing-by-8 reads the input as little-endian words; other hosts
  // take the bytewise loop for the whole buffer.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; bytes += 8, size -= 8) {
      uint32_t lo = 0;
      uint32_t hi = 0;
      std::memcpy(&lo, bytes, 4);
      std::memcpy(&hi, bytes + 4, 4);
      lo ^= crc;
      crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  for (size_t i = 0; i < size; ++i) {
    crc = kTables[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  if (len2 == 0) return crc1;
  // `shift` advances a CRC state past one zero bit; squaring it doubles
  // the distance, so after two squarings it covers one zero byte. crc1
  // is then pushed past len2 zero bytes, one set bit of len2 at a time.
  Gf2Matrix shift{};
  shift[0] = kPoly;
  for (size_t k = 1; k < 32; ++k) shift[k] = 1u << (k - 1);
  shift = Gf2Square(Gf2Square(shift));
  for (; len2 != 0; len2 >>= 1) {
    shift = Gf2Square(shift);
    if ((len2 & 1u) != 0) crc1 = Gf2Times(shift, crc1);
  }
  return crc1 ^ crc2;
}

}  // namespace recovery
}  // namespace divexp
