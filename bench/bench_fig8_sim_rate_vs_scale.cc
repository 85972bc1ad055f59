/**
 * @file
 * Figure 8 / Section V-A: simulation rate vs number of simulated nodes.
 *
 * The paper boots Linux and powers down, measuring target MHz on EC2
 * F1 for standard and supernode configurations. Absolute host rates on
 * this machine are not comparable to an FPGA deployment, so two series
 * are reported:
 *
 *  1. The host-platform model's predicted F1 rate (src/host), fitted
 *     to the paper's anchors — this reproduces Figure 8's shape and
 *     magnitudes.
 *  2. This software simulator's measured wall-clock rate on the same
 *     topology (boot-and-idle workload), for transparency.
 *
 * Both must fall as the cluster grows; the paper's headline 1024-node
 * supernode point lands at ~3.4 MHz.
 *
 * A second table sweeps the token fabric's worker-thread count
 * (TokenFabric::setParallelHosts) across cluster scales and reports
 * target cycles/second plus parallel efficiency against the
 * single-threaded run. The same data is written machine-readably to
 * BENCH_fig8.json. Results are bit-identical for every thread count —
 * only wall-clock time changes — so the sweep measures pure host-side
 * scaling, the software analogue of the paper adding F1 FPGAs.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/boot.hh"
#include "bench/common.hh"
#include "host/deployment.hh"
#include "host/perf_model.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

SwitchSpec
topoFor(uint32_t nodes)
{
    if (nodes <= 32)
        return topologies::singleTor(nodes);
    if (nodes <= 256)
        return topologies::twoLevel(nodes / 32, 32);
    return topologies::threeLevel(nodes / 256, 8, 32);
}

/** Target time every measured run covers: the scaled-down 2048-sector
 *  boot powers down at about 2541.5 us at every scale, so this window
 *  holds the whole boot-and-power-down workload. */
constexpr double kBootWindowUs = 3000.0;

/** Measured software-simulation rate: every node boots and powers
 *  down (the paper's Section V-A workload), then target time over
 *  wall-clock time. `hosts` is the fabric worker-thread count. */
double
measuredMhz(uint32_t nodes, double target_us, unsigned hosts)
{
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    cc.parallelHosts = hosts;
    Cluster cluster(topoFor(nodes), cc);
    std::vector<BootResult> boots(nodes);
    BootConfig bc;
    bc.kernelSectors = 2048; // scaled-down image, same code paths
    bc.fsMetadataSectors = 256;
    for (uint32_t n = 0; n < nodes; ++n)
        launchBootWorkload(cluster.node(n), bc, &boots[n]);
    bench::Stopwatch clock;
    cluster.runUs(target_us);
    double wall_s = clock.seconds();
    for (uint32_t n = 0; n < nodes; ++n)
        if (!boots[n].poweredDown)
            warn("node %u did not finish booting in the window", n);
    double target_cycles = TargetClock().cyclesFromUs(target_us);
    return target_cycles / wall_s / 1e6;
}

/** One cell of the thread sweep: target cycles/second. */
struct SweepCell
{
    uint32_t nodes = 0;
    unsigned threads = 0;
    double cyclesPerSec = 0.0;
};

/** The round scheduler's load balance: how evenly the worker pool was
 *  loaded. */
struct BalanceRow
{
    double maxMeanBusy = 0.0; //!< max/mean worker busy-ns per round
    uint64_t rounds = 0;
    double cyclesPerSec = 0.0;
};

/**
 * Boot-and-idle a 32-node single-ToR cluster on @p hosts workers and
 * report the scheduler's load-balance telemetry. maxMeanBusy is
 * Σ(per-round max worker busy) / Σ(per-round mean worker busy): 1.0 is
 * a perfectly level pool, W (the worker count) is one worker doing
 * everything.
 */
BalanceRow
runBalance(unsigned hosts, double target_us)
{
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    cc.parallelHosts = hosts;
    Cluster cluster(topologies::singleTor(32), cc);
    std::vector<BootResult> boots(32);
    BootConfig bc;
    bc.kernelSectors = 2048;
    bc.fsMetadataSectors = 256;
    for (uint32_t n = 0; n < 32; ++n)
        launchBootWorkload(cluster.node(n), bc, &boots[n]);
    bench::Stopwatch clock;
    cluster.runUs(target_us);
    double wall_s = clock.seconds();

    const SchedTelemetry &tel = cluster.fabric().schedTelemetry();
    BalanceRow row;
    row.maxMeanBusy = tel.maxMeanBusyRatio();
    row.rounds = tel.rounds;
    row.cyclesPerSec =
        TargetClock().cyclesFromUs(target_us) / wall_s;
    return row;
}

void
writeSweepJson(const char *path, const std::vector<uint32_t> &scales,
               const std::vector<unsigned> &threads,
               const std::vector<SweepCell> &cells,
               const BalanceRow &balance, unsigned balance_hosts)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        warn("could not open %s for writing", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"experiment\": \"fig8\",\n");
    std::fprintf(f, "  \"workload\": \"boot-and-power-down\",\n");
    std::fprintf(f, "  \"metric\": \"target_cycles_per_second\",\n");
    std::fprintf(f, "  \"thread_counts\": [");
    for (size_t i = 0; i < threads.size(); ++i)
        std::fprintf(f, "%s%u", i ? ", " : "", threads[i]);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"scales\": [\n");
    for (size_t si = 0; si < scales.size(); ++si) {
        uint32_t nodes = scales[si];
        std::fprintf(f, "    {\"nodes\": %u, \"rates\": {", nodes);
        double base = 0.0;
        bool first = true;
        for (const SweepCell &c : cells) {
            if (c.nodes != nodes)
                continue;
            if (c.threads == 1)
                base = c.cyclesPerSec;
            std::fprintf(f, "%s\"%u\": %.6g", first ? "" : ", ",
                         c.threads, c.cyclesPerSec);
            first = false;
        }
        std::fprintf(f, "}, \"efficiency\": {");
        first = true;
        for (const SweepCell &c : cells) {
            if (c.nodes != nodes)
                continue;
            double eff = (base > 0.0 && c.threads > 0)
                             ? c.cyclesPerSec / base /
                                   static_cast<double>(c.threads)
                             : 0.0;
            std::fprintf(f, "%s\"%u\": %.4f", first ? "" : ", ",
                         c.threads, eff);
            first = false;
        }
        std::fprintf(f, "}}%s\n", si + 1 < scales.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"load_balance\": {\n");
    std::fprintf(f, "    \"topology\": \"singleTor32\",\n");
    std::fprintf(f, "    \"workers\": %u,\n", balance_hosts);
    std::fprintf(f, "    \"max_mean_busy_ratio\": %.4f,\n",
                 balance.maxMeanBusy);
    std::fprintf(f, "    \"rounds\": %llu,\n",
                 (unsigned long long)balance.rounds);
    std::fprintf(f, "    \"target_cycles_per_second\": %.6g\n",
                 balance.cyclesPerSec);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("Wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_fig8_sim_rate_vs_scale");
    bench::banner("Figure 8", "Simulation rate vs simulated cluster size");
    const Cycles link = 6400; // 2 us batches

    Table t({"Nodes", "Predicted F1 MHz (std)", "Predicted F1 MHz "
             "(supernode)", "This sim, measured MHz (idle)"});
    std::vector<uint32_t> scales = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
    uint32_t measure_limit = bench::fullScale() ? 128 : 32;

    for (uint32_t nodes : scales) {
        SwitchSpec topo_std = topoFor(nodes);
        DeploymentPlan std_plan = planDeployment(topo_std, false);
        SimRateEstimate std_est =
            estimateSimRate(topo_std, std_plan, link, 3.2);
        SwitchSpec topo_sup = topoFor(nodes);
        DeploymentPlan sup_plan = planDeployment(topo_sup, true);
        SimRateEstimate sup_est =
            estimateSimRate(topo_sup, sup_plan, link, 3.2);

        std::string meas = "-";
        if (nodes <= measure_limit)
            meas = Table::fmt(
                measuredMhz(nodes, kBootWindowUs,
                            bench::flags().parallelHosts),
                2);
        t.addRow({Table::fmt(nodes, 0), Table::fmt(std_est.targetMhz, 2),
                  Table::fmt(sup_est.targetMhz, 2), meas});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Note: the measured column is this event-driven software\n"
                "simulator on an idle (boot-and-halt-style) target; unlike\n"
                "the FPGA platform it skips empty cycles, so its absolute\n"
                "rates exceed F1 at small scales and are not comparable —\n"
                "only the downward trend with scale is.\n\n");

    // Worker-thread sweep: target cycles/sec per scale x thread count,
    // plus parallel efficiency (speedup over 1 thread / thread count).
    const std::vector<unsigned> threads = {1, 2, 4, 8};
    std::vector<uint32_t> sweep_scales;
    for (uint32_t nodes : scales)
        if (nodes >= 8 && nodes <= measure_limit)
            sweep_scales.push_back(nodes);

    std::vector<SweepCell> cells;
    Table sweep({"Nodes", "Threads", "Target cycles/s", "Speedup",
                 "Efficiency"});
    for (uint32_t nodes : sweep_scales) {
        double base = 0.0;
        for (unsigned th : threads) {
            SweepCell cell;
            cell.nodes = nodes;
            cell.threads = th;
            cell.cyclesPerSec = measuredMhz(nodes, kBootWindowUs, th) * 1e6;
            cells.push_back(cell);
            if (th == 1)
                base = cell.cyclesPerSec;
            double speedup = base > 0.0 ? cell.cyclesPerSec / base : 0.0;
            sweep.addRow({Table::fmt(nodes, 0), Table::fmt(th, 0),
                          Table::fmt(cell.cyclesPerSec / 1e6, 2) + " M",
                          Table::fmt(speedup, 2) + "x",
                          Table::fmt(speedup * 100.0 /
                                         static_cast<double>(th), 0) +
                              "%"});
        }
    }
    std::printf("Worker-thread sweep (token fabric parallel rounds; "
                "results are bit-identical across thread counts):\n");
    std::printf("%s\n", sweep.render().c_str());
    std::printf("Efficiency is speedup over the 1-thread run divided by\n"
                "the thread count; on a host with fewer cores than\n"
                "threads the extra workers cannot help and efficiency\n"
                "drops accordingly — read the sweep on a multi-core\n"
                "host to see the scaling the design is built for.\n\n");

    // Worker-pool balance on the same 32-node target: results are
    // bit-identical to 1 worker — only the balance and wall clock move.
    const unsigned balance_hosts = std::max(2u, bench::flags().parallelHosts);
    BalanceRow balance = runBalance(balance_hosts, kBootWindowUs);
    Table bal({"Max/mean busy", "Rounds", "Target cycles/s"});
    bal.addRow({Table::fmt(balance.maxMeanBusy, 3),
                Table::fmt(balance.rounds, 0),
                Table::fmt(balance.cyclesPerSec / 1e6, 2) + " M"});
    std::printf("Round-scheduler load balance (32-node single ToR, %u "
                "workers; 1.0 = perfectly level pool):\n",
                balance_hosts);
    std::printf("%s\n", bal.render().c_str());

    writeSweepJson("BENCH_fig8.json", sweep_scales, threads, cells,
                   balance, balance_hosts);

    SwitchSpec dc = topologies::threeLevel(4, 8, 32);
    DeploymentPlan plan = planDeployment(dc, true);
    SimRateEstimate est = estimateSimRate(dc, plan, link, 3.2);
    std::printf("\n1024-node supernode: predicted %.2f MHz, slowdown %.0fx "
                "(%s).\n",
                est.targetMhz, est.slowdown(3.2),
                bench::paperRef("3.42 MHz, <1000x slowdown").c_str());
    return 0;
}
