// CRC32 (IEEE, reflected): the standard check values, and agreement of
// the word-at-a-time update with a bit-at-a-time reference at every
// length, alignment and split point around the 8-byte word boundary.
#include "recovery/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace divexp {
namespace recovery {
namespace {

uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Update(0, nullptr, 0), 0u);
}

TEST(Crc32Test, ChunkedUpdatesMatchOneShotAtEverySplit) {
  Rng rng(7);
  // Room for every length at every start offset within a word.
  std::vector<unsigned char> storage(67 + 8);
  for (size_t len = 0; len <= 67; ++len) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      unsigned char* buf = storage.data() + misalign;
      for (size_t i = 0; i < len; ++i) {
        buf[i] = static_cast<unsigned char>(rng.Below(256));
      }
      const uint32_t one_shot = Crc32(buf, len);
      ASSERT_EQ(one_shot, BitwiseCrc32(buf, len))
          << "len " << len << " misalign " << misalign;
      for (size_t split = 0; split <= len; ++split) {
        const uint32_t head = Crc32Update(0, buf, split);
        ASSERT_EQ(Crc32Update(head, buf + split, len - split), one_shot)
            << "len " << len << " misalign " << misalign << " split "
            << split;
      }
    }
  }
}

// Crc32Combine joins the CRCs of two adjacent pieces into the CRC of
// both, at every split of every short length and alignment.
TEST(Crc32CombineTest, MatchesOneShotAtEverySplit) {
  Rng rng(11);
  std::vector<unsigned char> storage(67 + 8);
  for (size_t len = 0; len <= 67; ++len) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      unsigned char* buf = storage.data() + misalign;
      for (size_t i = 0; i < len; ++i) {
        buf[i] = static_cast<unsigned char>(rng.Below(256));
      }
      const uint32_t one_shot = Crc32(buf, len);
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32Combine(Crc32(buf, split),
                               Crc32(buf + split, len - split), len - split),
                  one_shot)
            << "len " << len << " misalign " << misalign << " split "
            << split;
      }
    }
  }
}

TEST(Crc32CombineTest, JoinsMebibytePieces) {
  Rng rng(13);
  std::vector<unsigned char> buf(size_t{1} << 20);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Below(256));
  const uint32_t one_shot = Crc32(buf.data(), buf.size());
  for (const size_t split : {size_t{1}, size_t{4096}, size_t{1} << 19,
                             buf.size() - 3}) {
    EXPECT_EQ(Crc32Combine(Crc32(buf.data(), split),
                           Crc32(buf.data() + split, buf.size() - split),
                           buf.size() - split),
              one_shot)
        << "split " << split;
  }
  // Many small pieces joined left to right.
  uint32_t joined = 0;
  for (size_t at = 0; at < buf.size(); at += 65537) {
    const size_t len = std::min<size_t>(65537, buf.size() - at);
    joined = Crc32Combine(joined, Crc32(buf.data() + at, len), len);
  }
  EXPECT_EQ(joined, one_shot);
}

TEST(Crc32CombineTest, EmptySecondPieceKeepsTheFirstCrc) {
  EXPECT_EQ(Crc32Combine(0xCBF43926u, 0, 0), 0xCBF43926u);
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);
  EXPECT_EQ(Crc32Combine(0, Crc32("123456789"), 9), 0xCBF43926u);
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
