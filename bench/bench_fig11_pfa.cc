/**
 * @file
 * Figure 11 / Section VI: hardware-accelerated vs software paging.
 *
 * Genome (random hash-table probes) and Qsort (good locality) run with
 * their 64 MiB peak working set against a remote memory blade, at
 * decreasing local-memory fractions, under the software-paging
 * baseline and the Page-Fault Accelerator. Expected shape: Qsort
 * tolerates swapping; Genome thrashes at low local memory; the PFA
 * reduces runtime overhead (paper: up to 1.4x) and cuts per-page
 * metadata-management time ~2.5x with the same number of evictions.
 */

#include "bench/common.hh"
#include "pfa/pager.hh"
#include "pfa/remote_memory.hh"
#include "pfa/workloads.hh"

using namespace firesim;

namespace
{

struct RunResult
{
    double runtime_ms = 0.0;
    uint64_t faults = 0;
    uint64_t evictions = 0;
    double metadata_per_fault_cycles = 0.0;
};

RunResult
runOne(bool genome, PagingMode mode, double local_fraction,
       const PfaWorkloadConfig &wc)
{
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    cc.net.mtu = 4400;
    cc.net.ringBufBytes = 8192;
    Cluster cluster(topologies::singleTor(2), cc);
    MemBladeStats blade_stats;
    launchMemoryBlade(cluster.node(1), MemBladeConfig{}, &blade_stats);

    PagerConfig pc;
    pc.mode = mode;
    pc.localFrames = std::max<uint64_t>(
        32, static_cast<uint64_t>(wc.pages * local_fraction));
    // The PFA reserves freeQTarget frames as staged free frames; grant
    // them on top so both modes expose the same resident capacity and
    // the comparison isolates the fault-handling mechanism.
    if (mode == PagingMode::Pfa)
        pc.localFrames += pc.freeQTarget;
    pc.memBladeIp = Cluster::ipFor(1);
    RemotePager pager(cluster.node(0), pc);
    pager.start();
    // Setup phase: populate local memory before timing, as the paper's
    // benchmarks do (their 100%-local runs are the no-overhead base).
    pager.prefault(wc.pages);

    PfaWorkloadResult result;
    if (genome)
        launchGenome(cluster.node(0), pager, wc, &result);
    else
        launchQsort(cluster.node(0), pager, wc, &result);

    for (int i = 0; i < 20000 && !result.done; ++i)
        cluster.runUs(1000.0);
    if (!result.done)
        fatal("PFA workload did not finish in the time budget");

    RunResult out;
    TargetClock clk;
    out.runtime_ms = clk.usFromCycles(result.runtime) / 1000.0;
    out.faults = pager.stats().faults;
    out.evictions = pager.stats().evictions;
    if (out.faults) {
        out.metadata_per_fault_cycles =
            static_cast<double>(pager.stats().metadataCycles) /
            static_cast<double>(out.faults);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_fig11_pfa");
    bench::banner("Figure 11", "Hardware-accelerated vs software paging");

    PfaWorkloadConfig wc;
    if (bench::fullScale()) {
        wc.pages = 16384; // the paper's 64 MiB working set
        wc.iterations = 20000;
    } else {
        wc.pages = 1024; // 4 MiB, same shape, fast on one host core
        wc.iterations = 4000;
    }

    Table t({"Workload", "Local mem", "SW runtime (ms)",
             "PFA runtime (ms)", "SW/PFA", "SW evictions",
             "PFA evictions"});

    double max_speedup = 0.0;
    double metadata_ratio_acc = 0.0;
    int metadata_samples = 0;

    for (bool genome : {true, false}) {
        for (double frac : {1.0, 0.75, 0.5, 0.25}) {
            RunResult sw =
                runOne(genome, PagingMode::Software, frac, wc);
            RunResult pfa = runOne(genome, PagingMode::Pfa, frac, wc);
            double ratio =
                pfa.runtime_ms > 0 ? sw.runtime_ms / pfa.runtime_ms : 1.0;
            if (frac < 1.0)
                max_speedup = std::max(max_speedup, ratio);
            if (sw.faults > 100 && pfa.faults > 100 &&
                pfa.metadata_per_fault_cycles > 0) {
                metadata_ratio_acc += sw.metadata_per_fault_cycles /
                                      pfa.metadata_per_fault_cycles;
                ++metadata_samples;
            }
            t.addRow({genome ? "genome" : "qsort",
                      Table::fmt(100 * frac, 0) + "%",
                      Table::fmt(sw.runtime_ms, 2),
                      Table::fmt(pfa.runtime_ms, 2), Table::fmt(ratio, 2),
                      Table::fmt(sw.evictions, 0),
                      Table::fmt(pfa.evictions, 0)});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Max PFA speedup over software paging: %.2fx (%s).\n",
                max_speedup,
                bench::paperRef("up to 1.4x reduction in overhead")
                    .c_str());
    if (metadata_samples) {
        std::printf("Mean per-page metadata-time ratio SW/PFA: %.2fx "
                    "(%s).\n",
                    metadata_ratio_acc / metadata_samples,
                    bench::paperRef("2.5x reduction, same eviction count")
                        .c_str());
    }
    return 0;
}
