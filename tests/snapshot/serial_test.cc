/**
 * @file
 * The component-state byte streams: Serializer / Deserializer round
 * trips (including a deterministic fuzz sweep) and the never-crash
 * discipline on malformed input.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "snapshot/serial.hh"

namespace firesim
{
namespace
{

TEST(SnapshotSerial, PrimitivesRoundTrip)
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
    s.putD(3.141592653589793);
    s.putStr("hello snapshot");
    s.putStr("");

    Deserializer d(s.takeBytes());
    EXPECT_EQ(d.getU(), 0u);
    EXPECT_EQ(d.getU(), 300u);
    EXPECT_EQ(d.getU(), ~0ull);
    EXPECT_EQ(d.getI(), -1);
    EXPECT_EQ(d.getI(), 1234567);
    EXPECT_TRUE(d.getB());
    EXPECT_FALSE(d.getB());
    EXPECT_EQ(d.getFixed32(), 0xdeadbeefu);
    EXPECT_EQ(d.getFixed64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.getD(), 3.141592653589793);
    EXPECT_EQ(d.getStr(), "hello snapshot");
    EXPECT_EQ(d.getStr(), "");
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.atEnd());
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
        Deserializer d(s.takeBytes());
        for (int i = 0; i < 500; ++i) {
            uint64_t v = vals[i];
            switch (kinds[i]) {
              case 0: EXPECT_EQ(d.getU(), v); break;
              case 1:
                EXPECT_EQ(d.getI(), static_cast<int64_t>(v));
                break;
              case 2: EXPECT_EQ(d.getB(), ((v >> 8) & 1) != 0); break;
              default: EXPECT_EQ(d.getFixed64(), v); break;
            }
        }
        EXPECT_TRUE(d.ok()) << d.error();
        EXPECT_TRUE(d.atEnd());
    }
}

TEST(SnapshotSerial, TruncationNeverCrashes)
{
    Serializer s;
    s.putU(1u << 20);
    s.putStr("some payload");
    s.putFixed64(42);
    std::string full = s.takeBytes();

    // Read the same schema from every possible truncation; each one
    // must latch a clean failure, never crash or read out of bounds.
    for (size_t cut = 0; cut < full.size(); ++cut) {
        Deserializer d(full.substr(0, cut));
        d.getU();
        d.getStr();
        d.getFixed64();
        EXPECT_FALSE(d.ok()) << "cut at " << cut;
        EXPECT_NE(d.error().find("snapshot decode error"),
                  std::string::npos);
    }
}

TEST(SnapshotSerial, FailureLatchesAndReturnsZeros)
{
    Deserializer d(std::string("\xff\xff", 2)); // unterminated varint
    EXPECT_EQ(d.getU(), 0u);
    EXPECT_FALSE(d.ok());
    std::string first = d.error();
    EXPECT_EQ(d.getU(), 0u);
    EXPECT_EQ(d.getStr(), "");
    EXPECT_EQ(d.error(), first) << "first error must stay latched";
}

} // namespace
} // namespace firesim
