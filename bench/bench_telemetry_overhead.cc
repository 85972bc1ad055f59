/**
 * @file
 * Telemetry + observability overhead: the out-of-band instrumentation
 * must be free when off and cheap when on.
 *
 * Workload: a 2-node ping cluster exchanging ICMP echoes for a fixed
 * stretch of target time. Three measurements:
 *
 *  1. telemetry off, repeated trials — the trial-to-trial spread is
 *     the measurement floor: with TelemetryConfig::enabled false the
 *     Cluster allocates nothing and attaches no fabric observers, so
 *     the tick loop is byte-for-byte the pre-telemetry path and any
 *     difference is noise;
 *  2. live monitoring on (heartbeat every 8192 rounds by default, or
 *     --heartbeat-every, plus the flight recorder) with telemetry
 *     itself off — the observability plane's round-loop cost;
 *  3. full telemetry (registry + AutoCounter sampler), reported as
 *     overhead versus the off-mode best.
 *
 * The timings are printed, not gated: each timed region is tens of
 * host milliseconds, too short for a wall-clock bar to tell overhead
 * from host noise. The exit code asserts target-side parity only:
 * every mode reaches the same final cycle with the same NIC and echo
 * counters, the observability contract the tests pin down. Results
 * land in BENCH_telemetry.json for trend tracking.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/common.hh"
#include "manager/checkpoint.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

/** The heartbeat trial's cadence: --heartbeat-every, or one per 8192
 *  rounds (sub-second wall intervals at realistic sim rates). */
uint64_t
heartbeatCadence()
{
    return bench::knobs().heartbeatEvery ? bench::knobs().heartbeatEvery
                                      : 8192;
}

enum class Mode
{
    Off,       //!< no telemetry, no monitor — the baseline path
    Heartbeat, //!< monitor + flight recorder on, telemetry off
    Full,      //!< registry + sampler
};

struct TrialResult
{
    double seconds = 0.0;
    Cycles finalCycle = 0;
    uint64_t framesSent = 0;
    uint64_t echoes = 0;
    uint64_t heartbeats = 0;
};

TrialResult
runTrial(Mode mode, double target_us)
{
    ClusterConfig cc; // default 2 us links: realistic round quantum
    bench::applyClusterFlags(cc);
    // The trial modes own the observability knobs; whatever the
    // command line set is measured only through its own mode.
    cc.monitor = MonitorConfig{};
    cc.flightRecorder = FlightRecorderConfig{};
    if (mode == Mode::Heartbeat) {
        cc.monitor.heartbeatEvery = heartbeatCadence();
        cc.monitor.heartbeatPath = "telemetry_heartbeat.jsonl";
        cc.flightRecorder.enabled = true;
    }
    if (mode == Mode::Full) {
        cc.telemetry.enabled = true;
        cc.telemetry.samplePeriod = 100000;
    }
    Cluster cluster(topologies::singleTor(2), cc);

    NodeSystem &n0 = cluster.node(0);
    n0.os().spawn("pinger", -1, [&]() -> Task<> {
        while (true)
            co_await n0.net().ping(Cluster::ipFor(1));
    });

    bench::maybeResume(cluster);
    bench::Stopwatch watch;
    if (!bench::runClusterUs(cluster, target_us))
        std::exit(0);
    TrialResult r;
    r.seconds = watch.seconds();
    r.finalCycle = cluster.now();
    r.framesSent = n0.blade().nic().stats().framesSent.value();
    r.echoes = cluster.node(1).net().stats().icmpEchoed.value();
    if (cluster.clusterMonitor())
        r.heartbeats = cluster.clusterMonitor()->heartbeats();
    return r;
}

void
writeBenchJson(const char *path, double off_best, double hb_best,
               double on_best, double off_spread, double hb_overhead,
               double on_overhead, const TrialResult &hb_last)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        warn("could not open %s for writing", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"experiment\": \"telemetry_overhead\",\n");
    std::fprintf(f, "  \"workload\": \"2-node-ping\",\n");
    std::fprintf(f, "  \"off_best_s\": %.6g,\n", off_best);
    std::fprintf(f, "  \"heartbeat_best_s\": %.6g,\n", hb_best);
    std::fprintf(f, "  \"full_best_s\": %.6g,\n", on_best);
    std::fprintf(f, "  \"off_spread_pct\": %.3f,\n", off_spread);
    std::fprintf(f, "  \"heartbeat_overhead_pct\": %.3f,\n", hb_overhead);
    std::fprintf(f, "  \"full_overhead_pct\": %.3f,\n", on_overhead);
    std::fprintf(f, "  \"heartbeats\": %llu\n",
                 (unsigned long long)hb_last.heartbeats);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_telemetry_overhead");
    bench::banner("Telemetry overhead",
                  "Out-of-band instrumentation cost on a 2-node ping run");

    // Long enough that each trial is tens of host milliseconds.
    const double target_us = bench::fullScale() ? 400000.0 : 100000.0;
    const int trials = bench::fullScale() ? 9 : 5;

    // Warm-up (page in code and allocator state before timing).
    runTrial(Mode::Off, target_us / 4);

    // The disabled path is the pre-telemetry path (no observers, no
    // allocations), so "overhead when off" is measured by timing the
    // identical off-mode workload in two interleaved trial groups and
    // comparing the best of each: any difference is the measurement
    // floor. The best-of-N comparison is the standard trick for timing
    // identical code under scheduler noise.
    // Trials are interleaved Off/Off/Heartbeat/Full so slow host-load
    // drift (frequency scaling, a noisy neighbor mid-bench) lands on
    // every mode alike instead of skewing whichever mode ran last —
    // best-of-N only cancels noise that is symmetric across modes.
    std::vector<double> off_a, off_b, hb_times, on_times;
    TrialResult off_last, hb_last, on_last;
    for (int t = 0; t < trials; ++t) {
        off_last = runTrial(Mode::Off, target_us);
        off_a.push_back(off_last.seconds);
        off_last = runTrial(Mode::Off, target_us);
        off_b.push_back(off_last.seconds);
        hb_last = runTrial(Mode::Heartbeat, target_us);
        hb_times.push_back(hb_last.seconds);
        on_last = runTrial(Mode::Full, target_us);
        on_times.push_back(on_last.seconds);
    }

    double off_best_a = *std::min_element(off_a.begin(), off_a.end());
    double off_best_b = *std::min_element(off_b.begin(), off_b.end());
    double off_best = std::min(off_best_a, off_best_b);
    double hb_best = *std::min_element(hb_times.begin(), hb_times.end());
    double on_best = *std::min_element(on_times.begin(), on_times.end());
    double off_spread =
        std::abs(off_best_a - off_best_b) / off_best * 100.0;
    double hb_overhead = (hb_best / off_best - 1.0) * 100.0;
    double on_overhead = (on_best / off_best - 1.0) * 100.0;

    Table t({"Mode", "Best host s", "Target cycles", "Echoes", "vs off"});
    t.addRow({"telemetry off (A)", Table::fmt(off_best_a, 4),
              Table::fmt(static_cast<double>(off_last.finalCycle), 0),
              Table::fmt(static_cast<double>(off_last.echoes), 0), "—"});
    t.addRow({"telemetry off (B)", Table::fmt(off_best_b, 4),
              Table::fmt(static_cast<double>(off_last.finalCycle), 0),
              Table::fmt(static_cast<double>(off_last.echoes), 0),
              Table::fmt(off_spread, 2) + "%"});
    t.addRow({"heartbeat monitor", Table::fmt(hb_best, 4),
              Table::fmt(static_cast<double>(hb_last.finalCycle), 0),
              Table::fmt(static_cast<double>(hb_last.echoes), 0),
              Table::fmt(hb_overhead, 2) + "%"});
    t.addRow({"full telemetry", Table::fmt(on_best, 4),
              Table::fmt(static_cast<double>(on_last.finalCycle), 0),
              Table::fmt(static_cast<double>(on_last.echoes), 0),
              Table::fmt(on_overhead, 1) + "%"});
    std::printf("%s\n", t.render().c_str());

    std::printf("Measurement floor: off-vs-off best-of-%d differ by "
                "%.2f%%\n", trials, off_spread);
    std::printf("Heartbeat-monitor overhead: %.2f%% with a heartbeat "
                "every %llu rounds (%llu heartbeats)\n",
                hb_overhead, (unsigned long long)heartbeatCadence(),
                (unsigned long long)hb_last.heartbeats);
    std::printf("Enabled-mode overhead: %.1f%% (AutoCounter every 100k "
                "cycles)\n", on_overhead);

    bool parity = off_last.finalCycle == on_last.finalCycle &&
                  off_last.framesSent == on_last.framesSent &&
                  off_last.echoes == on_last.echoes &&
                  hb_last.finalCycle == off_last.finalCycle &&
                  hb_last.framesSent == off_last.framesSent &&
                  hb_last.echoes == off_last.echoes;
    std::printf("Target parity across modes: %s (cycle %llu, %llu "
                "frames, %llu echoes)\n", parity ? "EXACT" : "BROKEN",
                (unsigned long long)on_last.finalCycle,
                (unsigned long long)on_last.framesSent,
                (unsigned long long)on_last.echoes);

    writeBenchJson("BENCH_telemetry.json", off_best, hb_best, on_best,
                   off_spread, hb_overhead, on_overhead, hb_last);

    if (!parity)
        std::printf("RESULT: FAIL\n");
    return parity ? 0 : 1;
}
