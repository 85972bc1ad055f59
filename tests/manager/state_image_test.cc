/**
 * @file
 * Cluster state images (Cluster::stateImage): what the sections are,
 * how the test-side differ reports a divergence, and the headline
 * parity — a 1-worker and a 4-worker run of one cluster hold the same
 * image mid-run and at the end, and taking an image changes nothing
 * downstream.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "tests/state_image.hh"

namespace firesim
{
namespace
{

constexpr Cycles kMid = 120000;
constexpr Cycles kEnd = 240000;

ClusterConfig
testConfig(unsigned workers)
{
    ClusterConfig cc;
    cc.linkLatency = 400; // short rounds keep the tests fast
    cc.switchLatency = 10;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    cc.parallelHosts = workers;
    return cc;
}

/** Endless ping loop: traffic in flight at every barrier. */
void
spawnPinger(NodeSystem &from, size_t to_index)
{
    from.os().spawn("pinger", -1, [&from, to_index]() -> Task<> {
        while (true)
            co_await from.net().ping(Cluster::ipFor(to_index));
    });
}

/** singleTor(4) with nodes 0 -> 1 and 2 -> 3 pinging. */
struct PingCluster
{
    Cluster clu;

    explicit PingCluster(unsigned workers)
        : clu(topologies::singleTor(4), testConfig(workers))
    {
        clu.health();
        spawnPinger(clu.node(0), 1);
        spawnPinger(clu.node(2), 3);
    }
};

TEST(StateImageDiff, NamesTheDivergentSection)
{
    StateImage a = {{"fabric", "abc"}, {"switch0", "hello"},
                    {"stats", "{}"}};
    EXPECT_EQ(imageDiff(a, a), "");

    StateImage flipped = a;
    flipped[1].second[3] ^= 1;
    EXPECT_EQ(imageDiff(a, flipped),
              "section 'switch0' diverges at byte 3 (5 bytes vs 5)");

    StateImage shorter = a;
    shorter[1].second.resize(2);
    EXPECT_EQ(imageDiff(a, shorter),
              "section 'switch0' diverges at byte 2 (5 bytes vs 2)");

    StateImage missing = {a[0], a[2]};
    EXPECT_EQ(imageDiff(a, missing),
              "section 'switch0' missing from the second image");
    EXPECT_EQ(imageDiff(missing, a),
              "section 'switch0' missing from the first image");
}

TEST(StateImageDiff, UnionDropsRankLocalSectionsAndKeepsOneFabric)
{
    StateImage rank0 = {{"fabric", "f"}, {"chan0", "c0"},
                        {"blade0", "b0"}, {"stats", "s0"},
                        {"health", "h0"}};
    StateImage rank1 = {{"fabric", "f"}, {"chan1", "c1"},
                        {"blade1", "b1"}, {"stats", "s1"}};
    StateImage merged = unionRankImages({rank0, rank1});
    StateImage want = {{"blade0", "b0"}, {"blade1", "b1"},
                       {"chan0", "c0"},  {"chan1", "c1"},
                       {"fabric", "f"}};
    EXPECT_EQ(merged, want);
}

TEST(ClusterStateImage, HoldsOneSectionPerComponent)
{
    PingCluster pc(1);
    pc.clu.run(kMid);
    std::vector<std::string> names;
    for (const auto &[name, bytes] : pc.clu.stateImage()) {
        names.push_back(name);
        EXPECT_FALSE(bytes.empty()) << name;
    }
    size_t channels = pc.clu.fabric().channelCount();
    ASSERT_EQ(names.size(), 1 + channels + 1 + 3 * 4 + 3);
    EXPECT_EQ(names.front(), "fabric");
    EXPECT_EQ(names[1].rfind("chan", 0), 0u) << names[1];
    EXPECT_EQ(names[1 + channels], "switch0");
    EXPECT_EQ(names[2 + channels], "blade0");
    EXPECT_EQ(names[3 + channels], "os0");
    EXPECT_EQ(names[4 + channels], "net0");
    std::vector<std::string> tail(names.end() - 3, names.end());
    EXPECT_EQ(tail,
              (std::vector<std::string>{"health", "autocounter", "stats"}));
}

TEST(ClusterStateImage, OneAndFourWorkersMatchMidRunAndAtEnd)
{
    PingCluster one(1), four(4), unbroken(1);
    one.clu.run(kMid);
    four.clu.run(kMid);
    StateImage mid = one.clu.stateImage();
    EXPECT_EQ(imageDiff(mid, four.clu.stateImage()), "") << "mid-run";

    one.clu.run(kEnd - kMid);
    four.clu.run(kEnd - kMid);
    unbroken.clu.run(kEnd);
    StateImage end = one.clu.stateImage();
    EXPECT_NE(imageDiff(mid, end), "") << "the run never moved";
    EXPECT_EQ(imageDiff(end, four.clu.stateImage()), "") << "at the end";
    EXPECT_EQ(imageDiff(end, unbroken.clu.stateImage()), "")
        << "taking an image mid-run changed the simulation";
}

} // namespace
} // namespace firesim
