/**
 * @file
 * Format-level tests of the snapshot subsystem: Serializer /
 * Deserializer round trips (including a deterministic fuzz sweep),
 * the never-crash discipline on malformed input, and the
 * SnapshotWriter / SnapshotReader container — truncation, bit flips,
 * bad magic, and version skew are all rejected with a diagnostic
 * naming what went wrong.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "snapshot/serial.hh"
#include "snapshot/snapshot.hh"
#include "tests/scoped_temp_dir.hh"

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

// ---- container round trip + corruption ------------------------------

SnapshotWriter
makeWriter()
{
    SnapshotHeader hdr;
    hdr.topoHash = 0x1122334455667788ull;
    hdr.shards = 2;
    hdr.rank = 1;
    hdr.round = 7;
    hdr.cycle = 2800;
    SnapshotWriter w(hdr);
    w.addSection("alpha", std::string("alpha-payload"));
    w.addSection("beta", std::string(1000, '\xab'));
    w.addSection("empty", std::string());
    return w;
}

TEST(SnapshotContainer, EncodeParseRoundTrip)
{
    SnapshotWriter w = makeWriter();
    SnapshotReader r;
    ASSERT_EQ(r.parse(w.encode()), "");
    EXPECT_EQ(r.header().topoHash, 0x1122334455667788ull);
    EXPECT_EQ(r.header().shards, 2u);
    EXPECT_EQ(r.header().rank, 1u);
    EXPECT_EQ(r.header().round, 7u);
    EXPECT_EQ(r.header().cycle, 2800u);
    ASSERT_TRUE(r.hasSection("beta"));
    SnapshotErrors err;
    EXPECT_EQ(r.section("alpha", err), "alpha-payload");
    EXPECT_EQ(r.section("beta", err).size(), 1000u);
    EXPECT_EQ(r.section("empty", err), "");
    EXPECT_TRUE(err.ok()) << err.str();
    EXPECT_FALSE(r.hasSection("gamma"));
    r.section("gamma", err);
    EXPECT_FALSE(err.ok()) << "missing section must fail the lookup";
}

TEST(SnapshotContainer, TruncatedImageRejected)
{
    std::string image = makeWriter().encode();
    // Every truncation point must produce a diagnostic, not a crash.
    for (size_t cut : {size_t(0), size_t(3), size_t(10),
                       image.size() / 2, image.size() - 1}) {
        SnapshotReader r;
        std::string e = r.parse(image.substr(0, cut));
        EXPECT_NE(e, "") << "cut at " << cut;
    }
}

TEST(SnapshotContainer, FlippedByteNamesTheSection)
{
    std::string image = makeWriter().encode();
    // Flip a byte deep inside the big "beta" payload: its CRC must
    // catch it and the error must say which section died.
    size_t at = image.find(std::string(8, '\xab'));
    ASSERT_NE(at, std::string::npos);
    image[at + 4] ^= 0x01;
    SnapshotReader r;
    std::string e = r.parse(image);
    ASSERT_NE(e, "");
    EXPECT_NE(e.find("beta"), std::string::npos)
        << "diagnostic should name the corrupted section: " << e;
}

TEST(SnapshotContainer, BadMagicRejected)
{
    std::string image = makeWriter().encode();
    image[0] ^= 0x40;
    SnapshotReader r;
    std::string e = r.parse(image);
    ASSERT_NE(e, "");
    EXPECT_NE(e.find("magic"), std::string::npos) << e;
}

TEST(SnapshotContainer, WrongVersionRejected)
{
    std::string image = makeWriter().encode();
    image[4] = static_cast<char>(kSnapshotVersion + 9); // version LSB
    SnapshotReader r;
    std::string e = r.parse(image);
    ASSERT_NE(e, "");
    EXPECT_NE(e.find("version"), std::string::npos) << e;
}

TEST(SnapshotContainer, FileRoundTripAndMissingFile)
{
    ScopedTempDir tmp;
    std::string path = tmp.file("fsnp_roundtrip.snap");
    SnapshotWriter w = makeWriter();
    ASSERT_EQ(w.writeFile(path), "");
    SnapshotReader r;
    ASSERT_EQ(r.open(path), "");
    EXPECT_EQ(r.sectionNames().size(), 3u);
    std::remove(path.c_str());

    SnapshotReader missing;
    EXPECT_NE(missing.open(path), "") << "vanished file must error";
}

TEST(SnapshotContainer, RankPath)
{
    EXPECT_EQ(snapshotRankPath("ck.snap", 1, 0), "ck.snap");
    EXPECT_EQ(snapshotRankPath("ck.snap", 4, 2), "ck.snap.rank2");
}

} // namespace
} // namespace firesim
