/**
 * @file
 * Deterministic mutation fuzzing of the wire-frame decoder, in the
 * style of snapshot_fuzz_test: no external fuzzer, a fixed seed, and
 * every mutation reproducible from its frame, byte offset and mask.
 *
 * One frame of each type is built: Hello, an empty Batch, a
 * flit-bearing Batch, RoundDone and Bye.
 *  - Every truncation must return false from decodeFrame and leave the
 *    position unchanged. Each truncation is an exact-size copy, so in
 *    the ASan tree a read past its end is a heap overflow.
 *  - A seeded sample of byte offsets per frame is XORed with 0x01, 0x80
 *    and 0xFF. Each mutant is decoded in a death-test child, which must
 *    either finish (decoded or false) or die with a "wire:" panic. UB,
 *    a sanitizer report, any other panic, or a bad_alloc fails the
 *    case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "net/remote/wire.hh"

// In a sanitized tree, make UBSan end the process on its first report
// instead of printing and carrying on, so a death-test child that hits
// UB exits non-zero rather than passing as a clean decode.
extern "C" const char *
__ubsan_default_options()
{
    return "halt_on_error=1";
}

namespace firesim
{
namespace
{

struct NamedFrame
{
    const char *name;
    std::string bytes;
};

std::vector<NamedFrame>
sampleFrames()
{
    std::vector<NamedFrame> frames = {
        {"hello", ""},      {"batch-empty", ""}, {"batch-flits", ""},
        {"round-done", ""}, {"bye", ""}};
    encodeHello(frames[0].bytes, 3, 4, 0x9e3779b97f4a7c15ULL, 2,
                0xfedcba9876543210ULL);
    encodeBatch(frames[1].bytes, 5, TokenBatch(128000, 400));
    TokenBatch b(256000, 400);
    for (uint32_t i = 0; i < 6; ++i) {
        Flit f;
        f.offset = 3 + 61 * i;
        f.size = static_cast<uint8_t>(i % kFlitBytes + 1);
        f.last = i % 3 == 2;
        for (uint8_t k = 0; k < f.size; ++k)
            f.data[k] = static_cast<uint8_t>(0xa5 ^ (i * 17 + k));
        b.push(f);
    }
    encodeBatch(frames[2].bytes, 9, b);
    encodeRoundDone(frames[3].bytes, 4097, 1638800, 21500);
    encodeBye(frames[4].bytes);
    return frames;
}

/** Death-test child: decode, report, and exit 0 unless it panicked. */
void
decodeAndExit(const std::string &bytes)
{
    size_t pos = 0;
    Frame f;
    bool ok = decodeFrame(bytes, pos, f);
    std::fprintf(stderr, "decode %s\n", ok ? "ok" : "false");
    std::exit(0);
}

bool
finishedOrAborted(int status)
{
    return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
           (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
}

TEST(WireFuzz, PristineFramesDecode)
{
    for (const NamedFrame &frame : sampleFrames()) {
        size_t pos = 0;
        Frame f;
        EXPECT_TRUE(decodeFrame(frame.bytes, pos, f)) << frame.name;
        EXPECT_EQ(pos, frame.bytes.size()) << frame.name;
    }
}

TEST(WireFuzz, EveryTruncationWaitsForMoreBytes)
{
    for (const NamedFrame &frame : sampleFrames()) {
        for (size_t len = 0; len < frame.bytes.size(); ++len) {
            std::string cut(frame.bytes, 0, len);
            size_t pos = 0;
            Frame f;
            EXPECT_FALSE(decodeFrame(cut, pos, f))
                << frame.name << " truncated to " << len;
            EXPECT_EQ(pos, 0u) << frame.name << " truncated to " << len;
        }
    }
}

TEST(WireFuzzDeath, ByteFlipsDecodeOrDieWithAWireError)
{
    std::mt19937 rng(0x5eed);
    const uint8_t masks[] = {0x01, 0x80, 0xFF};
    constexpr size_t kOffsetsPerFrame = 24;
    for (const NamedFrame &frame : sampleFrames()) {
        std::vector<size_t> offsets(frame.bytes.size());
        for (size_t i = 0; i < offsets.size(); ++i)
            offsets[i] = i;
        if (offsets.size() > kOffsetsPerFrame) {
            // Always keep the type and length bytes; sample the rest.
            std::shuffle(offsets.begin() + 2, offsets.end(), rng);
            offsets.resize(kOffsetsPerFrame);
        }
        for (size_t pos : offsets) {
            for (uint8_t mask : masks) {
                std::string mutant = frame.bytes;
                mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
                EXPECT_EXIT(decodeAndExit(mutant), finishedOrAborted,
                            "decode (ok|false)|panic: wire: ")
                    << frame.name << " byte " << pos << " ^ "
                    << static_cast<int>(mask);
            }
        }
    }
}

} // namespace
} // namespace firesim
