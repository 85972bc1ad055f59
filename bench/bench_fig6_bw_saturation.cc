/**
 * @file
 * Figure 6 / Section IV-D: saturating network bandwidth.
 *
 * 16 nodes, two ToR switches and one root switch. Each server on the
 * first ToR streams to the corresponding server on the second ToR
 * through the root; senders enter staggered in time, with NIC rate
 * limits set to the standard Ethernet bandwidths of 1, 10, 40, and
 * 100 Gbit/s. Aggregate bandwidth is measured over time at the root
 * switch. Expected shape (paper): the 1 and 10 Gbit/s runs max out at
 * 8 and 80 Gbit/s; the 40 and 100 Gbit/s runs saturate the 200 Gbit/s
 * inter-rack path after five and two senders respectively.
 */

#include <map>
#include <vector>

#include "apps/baremetal_stream.hh"
#include "bench/common.hh"
#include "net/fabric.hh"
#include "switchmodel/switch.hh"
#include "telemetry/auto_counter.hh"
#include "telemetry/stat_registry.hh"

using namespace firesim;

namespace
{

struct RunSeries
{
    std::vector<double> gbps; //!< per sample bucket
    double peak = 0.0;
    /** True when the AutoCounter-sampled series matched the manual
     *  takeBytesOutDelta() series exactly (out-of-band parity). */
    bool autoCounterParity = false;

    /** Steady-state mean over the last third of the run (all senders
     *  active); buckets are small relative to low-rate frame gaps, so
     *  the mean is the right summary, not the peak. */
    double
    steady() const
    {
        size_t from = gbps.size() * 2 / 3;
        double sum = 0.0;
        for (size_t i = from; i < gbps.size(); ++i)
            sum += gbps[i];
        return gbps.size() > from
                   ? sum / static_cast<double>(gbps.size() - from)
                   : 0.0;
    }
};

RunSeries
runConfig(double rate_gbps, Cycles stagger, Cycles bucket, int buckets)
{
    // Build 16 blades, 2 ToRs, 1 root by hand (bare-metal nodes need
    // exclusive ownership of their NICs, so no OS/Cluster here).
    constexpr int kPerTor = 8;
    std::vector<std::unique_ptr<ServerBlade>> blades;
    for (int i = 0; i < 2 * kPerTor; ++i) {
        BladeConfig bc;
        bc.name = csprintf("node%d", i);
        bc.mac = MacAddr(0x100 + i);
        blades.push_back(std::make_unique<ServerBlade>(bc));
    }
    SwitchConfig tor_cfg;
    tor_cfg.ports = kPerTor + 1;
    tor_cfg.minLatency = 10;
    SwitchConfig root_cfg;
    root_cfg.ports = 2;
    root_cfg.minLatency = 10;
    tor_cfg.name = "tor0";
    Switch tor0(tor_cfg);
    tor_cfg.name = "tor1";
    Switch tor1(tor_cfg);
    Switch root(root_cfg);

    const Cycles lat = 6400; // 2 us links
    TokenFabric fabric;
    for (auto &blade : blades)
        fabric.addEndpoint(blade.get());
    fabric.addEndpoint(&tor0);
    fabric.addEndpoint(&tor1);
    fabric.addEndpoint(&root);
    for (int i = 0; i < kPerTor; ++i) {
        fabric.connect(blades[i].get(), 0, &tor0, i, lat);
        fabric.connect(blades[kPerTor + i].get(), 0, &tor1, i, lat);
    }
    fabric.connect(&tor0, kPerTor, &root, 0, lat);
    fabric.connect(&tor1, kPerTor, &root, 1, lat);
    for (int i = 0; i < 2 * kPerTor; ++i) {
        MacAddr mac(0x100 + i);
        tor0.addMacEntry(mac, i < kPerTor ? i : kPerTor);
        tor1.addMacEntry(mac, i < kPerTor ? kPerTor : i - kPerTor);
        root.addMacEntry(mac, i < kPerTor ? 0 : 1);
    }
    fabric.finalize();
    fabric.setParallelHosts(bench::knobs().parallelHosts);

    // Rate limit: k/p of the 204.8 Gbit/s line rate.
    uint64_t p = std::max<uint64_t>(
        1, static_cast<uint64_t>(204.8 / rate_gbps + 0.5));

    std::vector<BareMetalTxStats> txs(kPerTor);
    std::vector<BareMetalRxStats> rxs(kPerTor);
    for (int i = 0; i < kPerTor; ++i) {
        launchBareMetalReceiver(*blades[kPerTor + i], 0, MacAddr(0x100 + i),
                                &rxs[i]);
        BareMetalTxConfig cfg;
        cfg.dstMac = MacAddr(0x100 + kPerTor + i);
        cfg.frames = 0; // stream forever
        cfg.frameBytes = 4096;
        cfg.startAt = static_cast<Cycles>(i) * stagger;
        cfg.rateK = 1;
        cfg.rateP = p;
        launchBareMetalSender(*blades[i], cfg, &txs[i]);
    }

    // Out-of-band parity check: sample the root switch's bytesOut
    // counter through the telemetry spine at the bucket cadence and
    // verify it reproduces the manual takeBytesOutDelta() series.
    StatRegistry reg;
    root.registerStats(reg, "bench.root");
    AutoCounterSampler sampler(reg, bucket);
    sampler.attachTo(fabric);

    RunSeries series;
    std::vector<double> manual_bytes;
    TargetClock clk;
    for (int b = 0; b < buckets; ++b) {
        fabric.run(bucket);
        uint64_t bytes = root.takeBytesOutDelta();
        manual_bytes.push_back(static_cast<double>(bytes));
        double gbps = static_cast<double>(bytes) * 8.0 /
                      (clk.nsFromCycles(bucket));
        series.gbps.push_back(gbps);
        series.peak = std::max(series.peak, gbps);
    }

    std::vector<double> sampled =
        sampler.deltaSeries("bench.root.bytesOut");
    series.autoCounterParity = sampled == manual_bytes;
    return series;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::banner("Figure 6",
                  "Aggregate bandwidth over time at the root switch");
    TargetClock clk;
    const Cycles stagger = clk.cyclesFromUs(20.0);
    const Cycles bucket = clk.cyclesFromUs(10.0);
    const int buckets = bench::fullScale() ? 40 : 24;

    std::vector<double> rates = {1.0, 10.0, 40.0, 100.0};
    std::map<double, RunSeries> series;
    for (double rate : rates)
        series[rate] = runConfig(rate, stagger, bucket, buckets);

    Table t({"t (us)", "1 Gb/s senders", "10 Gb/s", "40 Gb/s",
             "100 Gb/s"});
    for (int b = 0; b < buckets; ++b) {
        std::vector<std::string> row;
        row.push_back(Table::fmt((b + 1) * 10.0, 0));
        for (double rate : rates)
            row.push_back(Table::fmt(series[rate].gbps[b], 1));
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("Steady-state aggregates: 1G=%.1f (paper: 8), "
                "10G=%.1f (paper: 80), "
                "40G=%.1f (paper: ~200, saturates after 5 senders), "
                "100G=%.1f (paper: ~200, saturates after 2 senders)\n",
                series[1.0].steady(), series[10.0].steady(),
                series[40.0].steady(), series[100.0].steady());
    std::printf("Senders enter every 20 us (dotted lines in the paper's "
                "figure).\n");

    bool parity = true;
    for (double rate : rates)
        parity = parity && series[rate].autoCounterParity;
    std::printf("AutoCounter parity: sampled root bytesOut series %s the "
                "manual per-bucket series for all %zu rates\n",
                parity ? "MATCHES" : "DIVERGES FROM", rates.size());
    return parity ? 0 : 1;
}
