/**
 * @file
 * Deterministic mutation fuzzing of the rank-telemetry decoder, in the
 * style of snapshot_fuzz_test: no external fuzzer, and every mutation
 * reproducible from its byte offset and mask.
 *
 * One encoded RankTelemetry with several stats (integral, negative and
 * non-integral values, prefix-compressed names) and several simrate
 * phases is truncated at every length and has every byte XORed with
 * 0x01, 0x80 and 0xFF. Each mutant goes through
 * StatAggregator::acceptEncoded, as a peer's payload would, and then
 * through all three merged renderings. Nothing may crash; the two JSON
 * renderings must still parse; every truncation and every changed
 * version byte must be dropped. A last loop splices hostile varints
 * into every offset: one wider than 64 bits, and the largest 64-bit
 * value (as a length or count it must not wrap a bounds check).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "telemetry/aggregate.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

constexpr uint32_t kPeerRank = 2;

RankTelemetry
sampleTelemetry(uint32_t rank)
{
    RankTelemetry rt;
    rt.rank = rank;
    rt.round = 4097;
    rt.cycle = 1310720;
    rt.stats.at = rt.cycle;
    rt.stats.values = {
        {"cluster.node0.nic.bytesSent", 123456789.0},
        {"cluster.node0.nic.framesSent", 42.0},
        {"cluster.node0.os.ipc", 0.625},
        {"cluster.node1.nic.bytesSent", 0.0},
        {"cluster.switch0.packetsOut", -5.0},
        {"cluster.switch0.queue.p99", 1.75e17},
    };
    const char *names[] = {"boot", "run.0", "run.1310720"};
    Cycles start = 0;
    for (const char *name : names) {
        SimRateTelemetry::Phase ph;
        ph.name = name;
        ph.startCycle = start;
        ph.targetCycles = 655360;
        ph.hostSeconds = 0.0078125 * static_cast<double>(start + 1);
        rt.phases.push_back(ph);
        start += ph.targetCycles;
    }
    return rt;
}

/**
 * Feed @p payload to a fresh aggregator that already holds rank 0's
 * local telemetry, render every merged view, and report whether the
 * payload was accepted. @p what names the mutation in failures.
 */
bool
feed(const std::string &payload, const std::string &what)
{
    StatAggregator agg;
    agg.accept(sampleTelemetry(0));
    agg.acceptEncoded(kPeerRank, payload);
    for (const std::string &json :
         {agg.mergedJson(), agg.mergedTraceJson()}) {
        try {
            minijson::parse(json);
        } catch (const std::runtime_error &e) {
            ADD_FAILURE() << what << ": merged JSON does not parse: "
                          << e.what();
        }
    }
    std::string csv = agg.mergedCsv();
    EXPECT_EQ(csv.rfind("# cycle ", 0), 0u) << what;
    EXPECT_EQ(agg.rankCount(), agg.hasRank(kPeerRank) ? 2u : 1u) << what;
    return agg.hasRank(kPeerRank);
}

TEST(TelemetryFuzz, EveryTruncationIsDropped)
{
    // The untruncated payload is the one that must be accepted.
    std::string image = encodeRankTelemetry(sampleTelemetry(kPeerRank));
    for (size_t len = 0; len <= image.size(); ++len)
        EXPECT_EQ(feed(image.substr(0, len),
                       "truncated to " + std::to_string(len)),
                  len == image.size());
}

TEST(TelemetryFuzz, EveryByteFlipIsSurvivedAndVersionFlipsDropped)
{
    std::string image = encodeRankTelemetry(sampleTelemetry(kPeerRank));
    const uint8_t masks[] = {0x01, 0x80, 0xFF};
    size_t accepted = 0, total = 0;
    for (size_t pos = 0; pos < image.size(); ++pos) {
        for (uint8_t mask : masks) {
            std::string mutant = image;
            mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
            std::string what = "byte " + std::to_string(pos) + " ^ " +
                               std::to_string(mask);
            bool ok = feed(mutant, what);
            // The version is the payload's first byte (a one-byte
            // varint): any change to it must be refused.
            if (pos == 0) {
                EXPECT_FALSE(ok) << what << ": changed version accepted";
            }
            accepted += ok;
            ++total;
        }
    }
    // Most flips land in names and values and decode as other (still
    // well-formed) telemetry; the loop must have exercised both paths.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, total);
}

TEST(TelemetryFuzz, HostileVarintSplicesAreSurvived)
{
    std::string image = encodeRankTelemetry(sampleTelemetry(kPeerRank));
    const std::string overlong(11, '\xff');
    const std::string max64 = std::string(9, '\xff') + '\x01';
    for (size_t pos = 0; pos <= image.size(); ++pos) {
        for (const std::string *splice : {&overlong, &max64}) {
            std::string mutant = image;
            mutant.insert(pos, *splice);
            feed(mutant, "splice of " + std::to_string(splice->size()) +
                             " bytes at " + std::to_string(pos));
        }
    }
}

} // namespace
} // namespace firesim
