/**
 * @file
 * Tests for the bench knob table (bench/common.hh): the documented
 * contract is strict — no leading whitespace (strtoul would silently
 * skip it), no signs, no trailing junk — on both the --flag and the
 * FIRESIM_* environment paths, which share each row's parser. One loop
 * feeds every row malformed values on both paths; another gives every
 * row a valid value on both paths and checks the ClusterConfig field
 * applyClusterFlags fills. The per-knob death tests pin each parser's
 * error message and the cross-checks.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace firesim
{
namespace
{

using bench::parseCommonFlags;
using bench::parseShardConnectKnob;
using bench::parseUnsignedKnob;

/** Run parseCommonFlags on a single fake argv flag. */
void
parseOneFlag(const char *flag)
{
    const char *argv[] = {"bench", flag};
    parseCommonFlags(2, const_cast<char **>(argv));
}

TEST(KnobParse, AcceptsStrictDecimal)
{
    EXPECT_EQ(parseUnsignedKnob("t", "0"), 0u);
    EXPECT_EQ(parseUnsignedKnob("t", "8"), 8u);
    EXPECT_EQ(parseUnsignedKnob("t", "+3"), 3u);
    EXPECT_EQ(parseUnsignedKnob("t", "4294967295"), 4294967295u);
}

/**
 * Malformed values per knob-table row, keyed by flag. An empty list
 * marks a free-form row (a path): every value is legal there. Cross-check failures (a zero count) count
 * as malformed too: they also exit(2) naming the flag.
 */
const std::map<std::string, std::vector<const char *>> kMalformed = {
    // Every unsigned row shares parseUnsignedKnob: no whitespace
    // (strtoul would skip it), no sign but '+', no junk, no overflow.
    {"--parallel-hosts=",
     {"", "abc", "-3", "3x", "+", "4294967296", " 8", "\t8", " +8", "8 "}},
    {"--shards=", {"2x", "0", "-2", " 2", "2 ", "+"}},
    {"--shard-rank=", {"1 ", "x", "-1", "\t1", "4294967296"}},
    {"--shard-connect=",
     {"nohost", ":9000", "a:b:c", "h:port", "h:0", "h:70000"}},
    {"--shard-connect-timeout=", {"5s", "-1", " 5", "5 ", "1e3"}},
    // There is no loopback transport, and unix only names the
    // socketpair link of in-process ranks: the knob accepts neither.
    {"--shard-transport=",
     {"SHM", "pcie", "", "loopback", "unix", "fast"}},
    {"--shard-shm-ring=", {"1M", "0", "-1", "abc"}},
    {"--heartbeat-every=", {"8x", "1h", "-1", "", "4294967296"}},
    {"--status-interval=", {" 5", "5s", "-5", "+"}},
    {"--metrics-file=", {}},
};

/**
 * One valid value for a knob-table row, the flags its cross-checks
 * need alongside it, and the check of the ClusterConfig field that
 * applyClusterFlags fills from it. Every row has at least one case.
 */
struct ValidCase
{
    const char *flag;
    const char *value;
    std::vector<const char *> alongside;
    void (*check)(const ClusterConfig &cc);
};

const std::vector<ValidCase> kValid = {
    {"--parallel-hosts=", "3", {},
     [](const ClusterConfig &cc) { EXPECT_EQ(cc.parallelHosts, 3u); }},
    {"--shards=", "3", {"--shard-connect=h:9000"},
     [](const ClusterConfig &cc) { EXPECT_EQ(cc.shard.shards, 3u); }},
    {"--shard-rank=", "1", {"--shards=2", "--shard-connect=h:9000"},
     [](const ClusterConfig &cc) { EXPECT_EQ(cc.shard.rank, 1u); }},
    {"--shard-connect=", "10.1.2.3:9000", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.connectHost, "10.1.2.3");
         EXPECT_EQ(cc.shard.basePort, 9000u);
     }},
    {"--shard-connect-timeout=", "2500", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.connectTimeoutMs, 2500);
     }},
    {"--shard-transport=", "shm", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.transport, TransportKind::Shm);
     }},
    {"--shard-transport=", "tcp", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.transport, TransportKind::Tcp);
     }},
    {"--shard-transport=", "auto", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.transport, TransportKind::Auto);
     }},
    {"--shard-shm-ring=", "65536", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.shard.shmRingBytes, 65536u);
     }},
    {"--heartbeat-every=", "64", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.monitor.heartbeatEvery, 64u);
     }},
    {"--status-interval=", "10", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.monitor.statusIntervalSec, 10u);
     }},
    {"--metrics-file=", "/tmp/fs.prom", {},
     [](const ClusterConfig &cc) {
         EXPECT_EQ(cc.monitor.metricsPath, "/tmp/fs.prom");
     }},
};

TEST(KnobParse, EveryRowFillsItsClusterConfigFieldFromFlagAndEnv)
{
    std::map<std::string, const bench::Knob *> rows;
    for (const bench::Knob &knob : bench::kKnobTable)
        rows[knob.flag] = &knob;
    std::set<std::string> covered;
    for (const ValidCase &c : kValid) {
        auto row = rows.find(c.flag);
        ASSERT_NE(row, rows.end()) << c.flag << " is no knob-table row";
        covered.insert(c.flag);
        const bench::Knob &knob = *row->second;
        std::vector<std::string> args = {"bench"};
        for (const char *extra : c.alongside)
            args.push_back(extra);
        for (bool by_env : {false, true}) {
            SCOPED_TRACE(by_env ? std::string(knob.env) + "=" + c.value
                                : std::string(c.flag) + c.value);
            std::vector<std::string> argv_s = args;
            if (by_env)
                setenv(knob.env, c.value, 1);
            else
                argv_s.push_back(std::string(c.flag) + c.value);
            std::vector<char *> argv;
            for (std::string &a : argv_s)
                argv.push_back(a.data());
            bench::flags() = ClusterConfig{};
            parseCommonFlags(static_cast<int>(argv.size()), argv.data());
            if (by_env)
                unsetenv(knob.env);
            ClusterConfig cc;
            bench::applyClusterFlags(cc);
            c.check(cc);
        }
    }
    EXPECT_EQ(covered.size(), rows.size())
        << "every knob-table row needs a valid case";
    bench::flags() = ClusterConfig{};
}

TEST(KnobTableDeath, EveryRowRejectsMalformedValuesOnFlagAndEnv)
{
    size_t checked = 0;
    for (const bench::Knob &knob : bench::kKnobTable) {
        auto it = kMalformed.find(knob.flag);
        ASSERT_NE(it, kMalformed.end())
            << knob.flag << ": new knob needs malformed test values";
        std::string name = knob.flag;
        if (name.back() == '=')
            name.pop_back();
        for (const char *bad : it->second) {
            std::string arg = knob.flag + std::string(bad);
            // Each child starts from the defaults, so no value parsed
            // by an earlier test can satisfy a cross-check.
            EXPECT_EXIT(
                {
                    bench::flags() = ClusterConfig{};
                    parseOneFlag(arg.c_str());
                },
                ::testing::ExitedWithCode(2), name)
                << arg;
            EXPECT_EXIT(
                {
                    bench::flags() = ClusterConfig{};
                    setenv(knob.env, bad, 1);
                    parseCommonFlags(0, nullptr);
                },
                ::testing::ExitedWithCode(2),
                std::string(knob.env) + "|" + name)
                << knob.env << "='" << bad << "'";
            ++checked;
        }
    }
    EXPECT_EQ(kMalformed.size(), std::size(bench::kKnobTable));
    EXPECT_GT(checked, 50u);
}

TEST(KnobParseDeath, RejectsMalformedValues)
{
    EXPECT_EXIT(parseUnsignedKnob("t", ""),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "abc"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "-3"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "3x"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "+"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "4294967296"),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(KnobParseDeath, RejectsLeadingWhitespace)
{
    // strtoul skips leading whitespace, so " 8" used to parse as 8 in
    // violation of the strict contract. All whitespace shapes die now.
    EXPECT_EXIT(parseUnsignedKnob("t", " 8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "\t8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", " +8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "8 "),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(KnobParseDeath, EnvPathSharesTheStrictParser)
{
    // The FIRESIM_* environment variables funnel through the same
    // parser; a whitespace-polluted env var must die, not truncate.
    EXPECT_EXIT(
        {
            setenv("FIRESIM_PARALLEL_HOSTS", " 8", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_PARALLEL_HOSTS");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARDS", "2x", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARDS");
}

TEST(KnobParseDeath, FlagPathRejectsWhitespace)
{
    EXPECT_EXIT(parseOneFlag("--parallel-hosts= 8"),
                ::testing::ExitedWithCode(2), "--parallel-hosts");
    EXPECT_EXIT(parseOneFlag("--shard-rank=1 "),
                ::testing::ExitedWithCode(2), "--shard-rank");
}

TEST(KnobParseDeath, ShardConnectDemandsHostColonPort)
{
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "nohost"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", ":9000"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "a:b:c"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:port"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:0"),
                ::testing::ExitedWithCode(2), "1, 65535");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:70000"),
                ::testing::ExitedWithCode(2), "1, 65535");
}

TEST(KnobParse, ShardConnectRoundTrips)
{
    bench::flags() = ClusterConfig{};
    parseShardConnectKnob("--shard-connect", "10.1.2.3:9000");
    EXPECT_EQ(bench::flags().shard.connectHost, "10.1.2.3");
    EXPECT_EQ(bench::flags().shard.basePort, 9000u);
    bench::flags() = ClusterConfig{};
}

TEST(KnobParse, ShardTransportRoundTrips)
{
    bench::flags() = ClusterConfig{};
    EXPECT_EQ(bench::flags().shard.transport, TransportKind::Auto);
    parseOneFlag("--shard-transport=shm");
    EXPECT_EQ(bench::flags().shard.transport, TransportKind::Shm);
    parseOneFlag("--shard-transport=tcp");
    EXPECT_EQ(bench::flags().shard.transport, TransportKind::Tcp);
    parseOneFlag("--shard-transport=auto");
    EXPECT_EQ(bench::flags().shard.transport, TransportKind::Auto);
    parseOneFlag("--shard-shm-ring=65536");
    EXPECT_EQ(bench::flags().shard.shmRingBytes, 65536u);
    bench::flags() = ClusterConfig{};
}

TEST(KnobParse, ObservabilityFlagsRoundTrip)
{
    bench::flags() = ClusterConfig{};
    parseOneFlag("--heartbeat-every=64");
    EXPECT_EQ(bench::flags().monitor.heartbeatEvery, 64u);
    parseOneFlag("--status-interval=10");
    EXPECT_EQ(bench::flags().monitor.statusIntervalSec, 10u);
    parseOneFlag("--metrics-file=/tmp/fs.prom");
    EXPECT_EQ(bench::flags().monitor.metricsPath, "/tmp/fs.prom");
    bench::flags() = ClusterConfig{};
}

TEST(KnobParseDeath, ShardFlagCrossValidation)
{
    // IIFEs: EXPECT_EXIT is a macro, so brace-initializer commas in a
    // plain compound statement would split into macro arguments.
    EXPECT_EXIT(
        ([] {
            const char *argv[] = {"bench", "--shards=2",
                                  "--shard-rank=2",
                                  "--shard-connect=h:9000"};
            parseCommonFlags(4, const_cast<char **>(argv));
        }()),
        ::testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(
        ([] {
            // The parser state is process-global; make sure no earlier
            // test's --shard-connect satisfies the check in this child.
            bench::flags().shard.basePort = 0;
            const char *argv[] = {"bench", "--shards=2"};
            parseCommonFlags(2, const_cast<char **>(argv));
        }()),
        ::testing::ExitedWithCode(2), "needs --shard-connect");
    EXPECT_EXIT(parseOneFlag("--shards=0"),
                ::testing::ExitedWithCode(2), "at least 1");
}

TEST(KnobParseDeath, UnknownFlagsFailLoudly)
{
    // A retired flag, a typo, or a value given as its own argument
    // exits(2) naming the argument instead of running the defaults.
    EXPECT_EXIT(parseOneFlag("--heartbeat-evry=64"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--heartbeat-evry=64'");
    EXPECT_EXIT(parseOneFlag("--shard-policy=cost"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--shard-policy=cost'");
    EXPECT_EXIT(parseOneFlag("--shards"), ::testing::ExitedWithCode(2),
                "unknown flag '--shards'");
    EXPECT_EXIT(parseOneFlag("--restore=run.snap"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--restore=run.snap'");
    EXPECT_EXIT(parseOneFlag("--checkpoint-every=100"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--checkpoint-every=100'");
    EXPECT_EXIT(parseOneFlag("--decode-cache=off"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--decode-cache=off'");
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries=4096"),
                ::testing::ExitedWithCode(2),
                "unknown flag '--decode-cache-entries=4096'");
    EXPECT_EXIT(
        ([] {
            const char *argv[] = {"bench", "--heartbeat-every", "64"};
            parseCommonFlags(3, const_cast<char **>(argv));
        }()),
        ::testing::ExitedWithCode(2), "unknown flag '--heartbeat-every'");
}

TEST(KnobParseDeath, ShardTransportIsStrict)
{
    EXPECT_EXIT(parseOneFlag("--shard-transport=SHM"),
                ::testing::ExitedWithCode(2), "auto, shm, or tcp");
    EXPECT_EXIT(parseOneFlag("--shard-transport=pcie"),
                ::testing::ExitedWithCode(2), "--shard-transport");
    EXPECT_EXIT(parseOneFlag("--shard-transport="),
                ::testing::ExitedWithCode(2), "--shard-transport");
    // There is no loopback transport, and unix names only the
    // socketpair link of in-process ranks: the knob accepts neither.
    EXPECT_EXIT(parseOneFlag("--shard-transport=loopback"),
                ::testing::ExitedWithCode(2), "--shard-transport");
    EXPECT_EXIT(parseOneFlag("--shard-transport=unix"),
                ::testing::ExitedWithCode(2), "--shard-transport");
    EXPECT_EXIT(parseOneFlag("--shard-shm-ring=1M"),
                ::testing::ExitedWithCode(2), "--shard-shm-ring");
    EXPECT_EXIT(parseOneFlag("--shard-shm-ring=0"),
                ::testing::ExitedWithCode(2), "at least 1");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARD_TRANSPORT", "fast", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARD_TRANSPORT");
}

TEST(KnobParseDeath, RequireSingleShardRefusesShardedRuns)
{
    // Benches that read every node refuse --shards>1 with exit 2 and
    // their own name, before they build any Cluster.
    EXPECT_EXIT(
        ([] {
            bench::flags() = ClusterConfig{};
            const char *argv[] = {"bench", "--shards=2", "--shard-rank=1",
                                  "--shard-connect=h:9000"};
            parseCommonFlags(4, const_cast<char **>(argv));
            bench::requireSingleShard("bench_fig8_sim_rate_vs_scale");
        }()),
        ::testing::ExitedWithCode(2),
        "bench_fig8_sim_rate_vs_scale .*cannot run sharded");
    EXPECT_EXIT(
        {
            bench::flags() = ClusterConfig{};
            bench::requireSingleShard("bench_fig8_sim_rate_vs_scale");
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(KnobParseDeath, ObservabilityFlagsShareTheStrictParser)
{
    EXPECT_EXIT(parseOneFlag("--heartbeat-every=8x"),
                ::testing::ExitedWithCode(2), "--heartbeat-every");
    EXPECT_EXIT(parseOneFlag("--status-interval= 5"),
                ::testing::ExitedWithCode(2), "--status-interval");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_HEARTBEAT_EVERY", "1h", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_HEARTBEAT_EVERY");
}

} // namespace
} // namespace firesim
