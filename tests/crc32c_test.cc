#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace leveldbpp {
namespace crc32c {

// Known-answer tests from the CRC32C specification (RFC 3720 appendix),
// for Extend (hardware-accelerated where the CPU allows) and the portable
// table-driven path alike.
void CheckStandardResults(uint32_t (*extend)(uint32_t, const char*, size_t)) {
  auto value = [&](const char* data, size_t n) { return extend(0, data, n); };
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(0x46dd794eu, value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(0x113fdb5cu, value(buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u, value(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(Crc32c, StandardResults) { CheckStandardResults(Extend); }

TEST(Crc32c, PortableStandardResults) { CheckStandardResults(ExtendPortable); }

// Extend and the portable path agree on every length 0..4096 at every
// alignment 0..7, from a zero and a non-zero starting CRC.
TEST(Crc32c, AcceleratedMatchesPortable) {
  std::string data(4096 + 8, '\0');
  uint32_t x = 12345;
  for (char& c : data) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 16);
  }
  for (size_t align = 0; align < 8; align++) {
    const char* p = data.data() + align;
    for (size_t n = 0; n <= 4096; n++) {
      ASSERT_EQ(ExtendPortable(0, p, n), Extend(0, p, n))
          << "align " << align << " n " << n;
      ASSERT_EQ(ExtendPortable(0xdeadbeef, p, n), Extend(0xdeadbeef, p, n))
          << "align " << align << " n " << n;
    }
  }
}

TEST(Crc32c, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<char>(i * 37));
  }
  uint32_t one_shot = Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split += 97) {
    uint32_t inc = Value(data.data(), split);
    inc = Extend(inc, data.data() + split, data.size() - split);
    EXPECT_EQ(one_shot, inc);
  }
}

}  // namespace crc32c
}  // namespace leveldbpp
