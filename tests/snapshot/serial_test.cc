/**
 * @file
 * The component-state byte streams: the bytes a Serializer writes for
 * each primitive, and a deterministic fuzz sweep that reads them back
 * with the tree-wide varint decoder (base/varint.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "snapshot/serial.hh"

namespace firesim
{
namespace
{

TEST(SnapshotSerial, PrimitivesHaveTheirDocumentedBytes)
{
    Serializer s;
    s.putU(0);
    s.putU(300);
    s.putU(~0ull);
    s.putI(-1);
    s.putI(1234567);
    s.putB(true);
    s.putB(false);
    s.putFixed32(0xdeadbeef);
    s.putFixed64(0x0123456789abcdefull);
    s.putD(1.0);
    s.putStr("hi");
    s.putStr("");

    const std::string want(
        "\x00"                                       // putU(0)
        "\xac\x02"                                   // putU(300)
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"   // putU(~0)
        "\x01"                                       // putI(-1): zigzag 1
        "\x8e\xda\x96\x01"                           // putI(1234567)
        "\x01\x00"                                   // putB x2
        "\xef\xbe\xad\xde"                           // fixed32, LE
        "\xef\xcd\xab\x89\x67\x45\x23\x01"           // fixed64, LE
        "\x00\x00\x00\x00\x00\x00\xf0\x3f"           // 1.0, IEEE bits
        "\x02hi"                                     // length + bytes
        "\x00",                                      // empty string
        44);
    EXPECT_EQ(s.bytes(), want);
    EXPECT_EQ(s.size(), want.size());
    EXPECT_EQ(s.takeBytes(), want);
}

/** Deterministic xorshift so the fuzz sweep replays identically. */
uint64_t
nextRand(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Little-endian u64 at @p pos, advancing it. */
uint64_t
fixed64At(const std::string &in, size_t &pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(in[pos++]))
             << (8 * i);
    return v;
}

TEST(SnapshotSerial, FuzzRoundTrip)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        uint64_t rng = seed * 0x9e3779b97f4a7c15ull;
        std::vector<int> kinds;
        std::vector<uint64_t> vals;
        Serializer s;
        for (int i = 0; i < 500; ++i) {
            uint64_t v = nextRand(rng);
            int kind = static_cast<int>(v % 4);
            kinds.push_back(kind);
            vals.push_back(v);
            switch (kind) {
              case 0: s.putU(v); break;
              case 1: s.putI(static_cast<int64_t>(v)); break;
              case 2: s.putB((v >> 8) & 1); break;
              default: s.putFixed64(v); break;
            }
        }
        const std::string bytes = s.takeBytes();
        size_t pos = 0;
        for (int i = 0; i < 500; ++i) {
            uint64_t v = vals[i];
            switch (kinds[i]) {
              case 0: EXPECT_EQ(getVarint(bytes, pos), v); break;
              case 1:
                EXPECT_EQ(unzigzag(getVarint(bytes, pos)),
                          static_cast<int64_t>(v));
                break;
              case 2:
                EXPECT_EQ(bytes[pos++], ((v >> 8) & 1) ? 1 : 0);
                break;
              default: EXPECT_EQ(fixed64At(bytes, pos), v); break;
            }
        }
        EXPECT_EQ(pos, bytes.size());
    }
}

} // namespace
} // namespace firesim
