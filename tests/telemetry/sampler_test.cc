#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/eth.hh"
#include "net/fabric.hh"
#include "telemetry/auto_counter.hh"
#include "telemetry/stat_registry.hh"
#include "tests/net/scripted_endpoint.hh"

namespace firesim
{
namespace
{

/** Two scripted endpoints on a fabric with a known link latency, plus
 *  a registry with one live counter driven by the test. */
struct SamplerFixture : public ::testing::Test
{
    SamplerFixture()
        : a(std::make_unique<ScriptedEndpoint>("a")),
          b(std::make_unique<ScriptedEndpoint>("b"))
    {
        fabric.addEndpoint(a.get());
        fabric.addEndpoint(b.get());
        fabric.connect(a.get(), 0, b.get(), 0, 100); // quantum = 100
        fabric.finalize();
        reg.registerCounter("test.events", events);
    }

    TokenFabric fabric;
    std::unique_ptr<ScriptedEndpoint> a;
    std::unique_ptr<ScriptedEndpoint> b;
    StatRegistry reg;
    Counter events;
};

TEST_F(SamplerFixture, SamplesAtExactPeriodMultiples)
{
    // Period == quantum: one sample per round, stamped at round ends.
    AutoCounterSampler sampler(reg, 100);
    sampler.attachTo(fabric);
    fabric.run(500);

    ASSERT_EQ(sampler.series().size(), 5u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(sampler.series()[i].at, (i + 1) * 100);
}

TEST_F(SamplerFixture, PeriodNotDividingQuantumStampsMultiples)
{
    // Period 150 against quantum 100: samples due at 150, 300, 450...
    // are taken at the end of the first round covering each, but
    // stamped with the exact multiple.
    AutoCounterSampler sampler(reg, 150);
    sampler.attachTo(fabric);
    fabric.run(600);

    ASSERT_EQ(sampler.series().size(), 4u);
    EXPECT_EQ(sampler.series()[0].at, 150u);
    EXPECT_EQ(sampler.series()[1].at, 300u);
    EXPECT_EQ(sampler.series()[2].at, 450u);
    EXPECT_EQ(sampler.series()[3].at, 600u);
}

TEST_F(SamplerFixture, PeriodLargerThanQuantumSkipsRounds)
{
    AutoCounterSampler sampler(reg, 250);
    sampler.attachTo(fabric);
    fabric.run(1000);
    ASSERT_EQ(sampler.series().size(), 4u);
    EXPECT_EQ(sampler.series()[0].at, 250u);
    EXPECT_EQ(sampler.series()[3].at, 1000u);
}

TEST_F(SamplerFixture, CapturesLiveCounterValues)
{
    AutoCounterSampler sampler(reg, 100);
    sampler.attachTo(fabric);

    events += 3;
    fabric.run(100);
    events += 4;
    fabric.run(100);

    ASSERT_EQ(sampler.series().size(), 2u);
    ASSERT_EQ(sampler.columns().size(), 1u);
    EXPECT_EQ(sampler.columns()[0], "test.events");
    EXPECT_DOUBLE_EQ(sampler.series()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(sampler.series()[1].values[0], 7.0);

    std::vector<double> delta = sampler.deltaSeries("test.events");
    ASSERT_EQ(delta.size(), 2u);
    EXPECT_DOUBLE_EQ(delta[0], 3.0);
    EXPECT_DOUBLE_EQ(delta[1], 4.0);
}

TEST_F(SamplerFixture, CsvIsWellFormed)
{
    AutoCounterSampler sampler(reg, 100);
    sampler.attachTo(fabric);
    events += 2;
    fabric.run(200);

    std::istringstream csv(sampler.csv());
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "cycle,test.events");
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "100,2");
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "200,2");
    EXPECT_FALSE(std::getline(csv, line));
}

TEST_F(SamplerFixture, CsvQuotesColumnNamesThatNeedIt)
{
    // Stat names may carry commas and quotes. RFC-4180: such header
    // fields are quoted, with embedded quotes doubled, so no column
    // shifts; plain names stay unquoted.
    reg.registerProbe("b.with,comma", [] { return 2.0; });
    reg.registerProbe("c.with\"quote", [] { return 3.0; });
    AutoCounterSampler sampler(reg, 100);
    sampler.attachTo(fabric);
    events += 9;
    fabric.run(100);

    EXPECT_EQ(sampler.csv(),
              "cycle,\"b.with,comma\",\"c.with\"\"quote\",test.events\n"
              "100,2,3,9\n");
}

TEST_F(SamplerFixture, SamplingDoesNotPerturbDelivery)
{
    // The out-of-band guarantee at frame granularity: arrival cycles
    // with a sampler attached equal arrival cycles without one.
    EthFrame frame(MacAddr(0xb), MacAddr(0xa), EtherType::Raw,
                   std::vector<uint8_t>(64, 0x5a));

    Cycles plain_arrival = 0;
    {
        auto tx = std::make_unique<ScriptedEndpoint>("tx");
        auto rx = std::make_unique<ScriptedEndpoint>("rx");
        TokenFabric f;
        f.addEndpoint(tx.get());
        f.addEndpoint(rx.get());
        f.connect(tx.get(), 0, rx.get(), 0, 100);
        f.finalize();
        tx->sendAt(10, frame);
        f.run(1000);
        ASSERT_EQ(rx->received.size(), 1u);
        plain_arrival = rx->received[0].first;
    }

    Cycles sampled_arrival = 0;
    {
        auto tx = std::make_unique<ScriptedEndpoint>("tx");
        auto rx = std::make_unique<ScriptedEndpoint>("rx");
        TokenFabric f;
        f.addEndpoint(tx.get());
        f.addEndpoint(rx.get());
        f.connect(tx.get(), 0, rx.get(), 0, 100);
        f.finalize();
        StatRegistry r;
        Counter c;
        r.registerCounter("x.y", c);
        AutoCounterSampler sampler(r, 70);
        sampler.attachTo(f);
        tx->sendAt(10, frame);
        f.run(1000);
        ASSERT_EQ(rx->received.size(), 1u);
        sampled_arrival = rx->received[0].first;
        EXPECT_GT(sampler.series().size(), 0u);
    }

    EXPECT_EQ(plain_arrival, sampled_arrival);
}

TEST(AutoCounterSamplerDeath, ZeroPeriodRejected)
{
    StatRegistry reg;
    EXPECT_EXIT(AutoCounterSampler(reg, 0),
                ::testing::ExitedWithCode(1), "period");
}

} // namespace
} // namespace firesim
