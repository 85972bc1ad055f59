/**
 * @file
 * Wire-framing tests for the distributed token fabric: every frame
 * type round-trips exactly, decode handles arbitrary stream splits
 * (TCP has no message boundaries), and malformed frames die loudly.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/random.hh"
#include "base/varint.hh"
#include "net/remote/wire.hh"

namespace firesim
{
namespace
{

TokenBatch
randomBatch(Random &rng, Cycles start, uint32_t len)
{
    TokenBatch b(start, len);
    uint32_t offset = 0;
    while (true) {
        offset += static_cast<uint32_t>(rng.range(1, 40));
        if (offset >= len)
            break;
        Flit f;
        f.offset = offset;
        f.size = static_cast<uint8_t>(rng.range(1, kFlitBytes));
        f.last = rng.below(4) == 0;
        for (uint8_t i = 0; i < f.size; ++i)
            f.data[i] = static_cast<uint8_t>(rng.next());
        b.push(f);
    }
    return b;
}

void
expectBatchEq(const TokenBatch &a, const TokenBatch &b)
{
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.len, b.len);
    ASSERT_EQ(a.flits.size(), b.flits.size());
    for (size_t i = 0; i < a.flits.size(); ++i) {
        EXPECT_EQ(a.flits[i].offset, b.flits[i].offset);
        EXPECT_EQ(a.flits[i].last, b.flits[i].last);
        EXPECT_EQ(a.flits[i].size, b.flits[i].size);
        EXPECT_EQ(a.flits[i].data, b.flits[i].data);
    }
}

TEST(Wire, HelloRoundTrips)
{
    std::string buf;
    encodeHello(buf, 3, 8, 0xdeadbeefcafef00dULL);
    size_t pos = 0;
    Frame f;
    ASSERT_TRUE(decodeFrame(buf, pos, f));
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(f.type, FrameType::Hello);
    EXPECT_EQ(f.version, kWireVersion);
    EXPECT_EQ(f.rank, 3u);
    EXPECT_EQ(f.shards, 8u);
    EXPECT_EQ(f.topoHash, 0xdeadbeefcafef00dULL);
}

TEST(Wire, RoundDoneAndByeRoundTrip)
{
    std::string buf;
    encodeRoundDone(buf, 41, 6400);
    encodeBye(buf);
    size_t pos = 0;
    Frame f;
    ASSERT_TRUE(decodeFrame(buf, pos, f));
    EXPECT_EQ(f.type, FrameType::RoundDone);
    EXPECT_EQ(f.round, 41u);
    EXPECT_EQ(f.cycle, 6400u);
    ASSERT_TRUE(decodeFrame(buf, pos, f));
    EXPECT_EQ(f.type, FrameType::Bye);
    EXPECT_EQ(pos, buf.size());
    EXPECT_FALSE(decodeFrame(buf, pos, f));
}

TEST(Wire, RoundDoneSizeIgnoresTheHostLatency)
{
    // The latency is host timing: two identical jobs must still move
    // the same number of bytes, so its width is fixed.
    std::string fast, slow;
    encodeRoundDone(fast, 41, 6400, 1);
    encodeRoundDone(slow, 41, 6400, uint64_t(1) << 40);
    EXPECT_EQ(fast.size(), slow.size());
    size_t pos = 0;
    Frame f;
    ASSERT_TRUE(decodeFrame(slow, pos, f));
    EXPECT_EQ(f.latencyNs, uint64_t(1) << 40);
    pos = 0;
    ASSERT_TRUE(decodeFrame(fast, pos, f));
    EXPECT_EQ(f.latencyNs, 1u);
}

TEST(Wire, EmptyBatchIsTiny)
{
    // An idle link's batch — the common case — must stay a handful of
    // bytes or distributed idle time swamps the wire.
    std::string buf;
    encodeBatch(buf, 7, TokenBatch(0, 6400));
    EXPECT_LE(buf.size(), 8u);
    size_t pos = 0;
    Frame f;
    ASSERT_TRUE(decodeFrame(buf, pos, f));
    EXPECT_EQ(f.type, FrameType::Batch);
    EXPECT_EQ(f.linkId, 7u);
    EXPECT_EQ(f.batch.start, 0u);
    EXPECT_EQ(f.batch.len, 6400u);
    EXPECT_TRUE(f.batch.isEmpty());
}

TEST(Wire, BatchPropertyRoundTrip)
{
    Random rng(20260807);
    for (int iter = 0; iter < 200; ++iter) {
        Cycles start = rng.below(1u << 20) * 100;
        uint32_t len = static_cast<uint32_t>(rng.range(1, 400));
        TokenBatch in = randomBatch(rng, start, len);
        uint32_t link = static_cast<uint32_t>(rng.below(64));

        std::string buf;
        encodeBatch(buf, link, in);
        size_t pos = 0;
        Frame f;
        ASSERT_TRUE(decodeFrame(buf, pos, f));
        EXPECT_EQ(pos, buf.size());
        EXPECT_EQ(f.type, FrameType::Batch);
        EXPECT_EQ(f.linkId, link);
        expectBatchEq(f.batch, in);
    }
}

TEST(Wire, DecodeResumesAcrossArbitrarySplits)
{
    // Stream a mixed frame sequence one byte at a time: decodeFrame
    // must return false (and not move pos) until a frame completes,
    // then yield exactly the original sequence.
    Random rng(7);
    std::string full;
    encodeHello(full, 1, 2, 99);
    TokenBatch b = randomBatch(rng, 6400, 100);
    encodeBatch(full, 5, b);
    encodeRoundDone(full, 12, 76800);
    encodeBye(full);

    std::string partial;
    std::vector<Frame> seen;
    size_t pos = 0;
    for (char c : full) {
        partial.push_back(c);
        Frame f;
        size_t before = pos;
        while (decodeFrame(partial, pos, f))
            seen.push_back(f);
        if (seen.empty()) {
            EXPECT_EQ(pos, before);
        }
    }
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0].type, FrameType::Hello);
    EXPECT_EQ(seen[1].type, FrameType::Batch);
    expectBatchEq(seen[1].batch, b);
    EXPECT_EQ(seen[2].type, FrameType::RoundDone);
    EXPECT_EQ(seen[2].round, 12u);
    EXPECT_EQ(seen[3].type, FrameType::Bye);
}

TEST(WireDeath, MalformedFrameTypePanics)
{
    // 5 was the Stats frame before wire v4; it is unknown again.
    for (uint8_t type : {uint8_t{0x7f}, uint8_t{5}}) {
        std::string buf;
        buf.push_back(static_cast<char>(type)); // no such FrameType
        buf.push_back(0);                       // empty payload
        size_t pos = 0;
        Frame f;
        EXPECT_DEATH(decodeFrame(buf, pos, f), "wire: unknown frame type")
            << "type " << unsigned(type);
    }
}

TEST(WireDeath, HugeFlitCountDiesWithAWireError)
{
    // A 14-byte Batch frame claiming 2^32-1 flits in a 2^32-1-cycle
    // batch and carrying none: decode must reject it, not reserve
    // storage for the claimed count.
    std::string body;
    putVarint(body, 7);           // link id
    putVarint(body, 0);           // start
    putVarint(body, 0xffffffffu); // len
    putVarint(body, 0xffffffffu); // nflits
    std::string buf;
    buf.push_back(static_cast<char>(FrameType::Batch));
    putVarint(buf, body.size());
    buf += body;
    ASSERT_EQ(buf.size(), 14u);
    size_t pos = 0;
    Frame f;
    EXPECT_DEATH(decodeFrame(buf, pos, f), "wire: truncated flit");
}

} // namespace
} // namespace firesim
