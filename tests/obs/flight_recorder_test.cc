/**
 * @file
 * Crash flight recorder: the fixed ring keeps exactly the last `depth`
 * events, survives concurrent writers and a concurrent reader (the
 * TSan tree runs this), renders parseable JSONL with a trailer, and
 * dumps atomically to its postmortem path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hh"
#include "tests/scoped_temp_dir.hh"
#include "tests/telemetry/mini_json.hh"

namespace firesim
{
namespace
{

using EventKind = FlightRecorder::EventKind;

/** A recorder config; tests that dump() set the path. */
FlightRecorderConfig
testConfig(size_t depth)
{
    FlightRecorderConfig fc;
    fc.enabled = true;
    fc.depth = depth;
    return fc;
}

std::vector<std::string>
jsonlLines(const std::string &text)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > pos)
            out.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return out;
}

TEST(FlightRecorder, RingKeepsTheLastDepthEvents)
{
    FlightRecorder fr(testConfig(8));
    for (uint64_t i = 0; i < 20; ++i)
        fr.record(EventKind::Note, i, i * 400, "evt", i);
    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.depth(), 8u);

    std::vector<std::string> out = jsonlLines(fr.renderJsonl("why"));
    ASSERT_EQ(out.size(), 9u) << "8 events + trailer";
    for (size_t i = 0; i + 1 < out.size(); ++i) {
        minijson::ValuePtr ev = minijson::parse(out[i]);
        // Oldest-first, starting where the ring stopped lapping.
        EXPECT_DOUBLE_EQ(ev->at("seq").number,
                         static_cast<double>(12 + i));
        EXPECT_DOUBLE_EQ(ev->at("a").number,
                         static_cast<double>(12 + i));
        EXPECT_EQ(ev->at("kind").str, "note");
        EXPECT_EQ(ev->at("detail").str, "evt");
    }
    minijson::ValuePtr trailer = minijson::parse(out.back());
    const minijson::Value &end = trailer->at("flight_recorder_end");
    EXPECT_EQ(end.at("reason").str, "why");
    EXPECT_DOUBLE_EQ(end.at("recorded").number, 20.0);
    EXPECT_DOUBLE_EQ(end.at("emitted").number, 8.0);
}

TEST(FlightRecorder, EveryEventKindRendersItsName)
{
    FlightRecorder fr(testConfig(16));
    for (uint8_t k = 0;
         k < static_cast<uint8_t>(EventKind::kCount); ++k)
        fr.record(static_cast<EventKind>(k), k, k);
    std::string jsonl = fr.renderJsonl("kinds");
    for (const char *name :
         {"health-event", "peer-loss", "checkpoint-write",
          "restore-diverged", "heartbeat", "straggler", "note"}) {
        EXPECT_NE(jsonl.find(std::string("\"kind\": \"") + name + "\""),
                  std::string::npos)
            << name;
    }
    EXPECT_EQ(jsonl.find("unknown"), std::string::npos);
}

TEST(FlightRecorder, DetailIsTruncatedAndEscaped)
{
    FlightRecorder fr(testConfig(4));
    std::string long_detail(100, 'x');
    fr.record(EventKind::Note, 0, 0, long_detail.c_str());
    fr.record(EventKind::Note, 1, 1, "quote \" and back\\slash");

    std::vector<std::string> out = jsonlLines(fr.renderJsonl("d"));
    ASSERT_EQ(out.size(), 3u);
    // The slot holds 63 chars + NUL; the overlong detail is cut, the
    // line still parses.
    minijson::ValuePtr first = minijson::parse(out[0]);
    EXPECT_EQ(first->at("detail").str, std::string(63, 'x'));
    minijson::ValuePtr second = minijson::parse(out[1]);
    EXPECT_EQ(second->at("detail").str, "quote \" and back\\slash");
}

TEST(FlightRecorder, DumpWritesThePostmortemFile)
{
    ScopedTempDir tmp;
    FlightRecorderConfig fc = testConfig(8);
    fc.path = tmp.file("fsfr_dump.jsonl");
    FlightRecorder fr(fc);
    fr.record(EventKind::PeerLoss, 9, 3600, "peer shard 1 lost", 1);
    ASSERT_TRUE(fr.dump("peer shard 1 lost"));

    std::FILE *f = std::fopen(fc.path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    std::vector<std::string> out = jsonlLines(text);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(minijson::parse(out[0])->at("kind").str, "peer-loss");
    EXPECT_EQ(minijson::parse(out[1])
                  ->at("flight_recorder_end")
                  .at("reason")
                  .str,
              "peer shard 1 lost");
}

TEST(FlightRecorder, ConcurrentWritersAndReaderStayCoherent)
{
    // The TSan target for the lock-free ring: four writer threads
    // hammer the ring while the main thread renders snapshots. No
    // crash, no torn line, and the final count is exact.
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 5000;
    FlightRecorder fr(testConfig(64));

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&fr, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                fr.record(EventKind::Note, i, i * 400,
                          "writer", static_cast<uint64_t>(t), i);
        });
    }
    for (int i = 0; i < 50; ++i) {
        // Mid-flight renders must always be valid JSONL; lapped or
        // mid-copy slots are skipped, never emitted torn.
        for (const std::string &line :
             jsonlLines(fr.renderJsonl("live")))
            EXPECT_NO_THROW(minijson::parse(line));
    }
    for (auto &w : writers)
        w.join();

    EXPECT_EQ(fr.recorded(), kThreads * kPerThread);
    std::vector<std::string> out = jsonlLines(fr.renderJsonl("done"));
    ASSERT_EQ(out.size(), 65u) << "full ring + trailer";
    for (const std::string &line : out)
        EXPECT_NO_THROW(minijson::parse(line));
}

TEST(FlightRecorderDeath, ZeroDepthIsFatal)
{
    FlightRecorderConfig fc;
    fc.enabled = true;
    fc.depth = 0;
    EXPECT_EXIT(FlightRecorder fr(fc), ::testing::ExitedWithCode(1),
                "depth");
}

} // namespace
} // namespace firesim
