/**
 * @file
 * Figure 7 / Section IV-E: reproducing the memcached thread-imbalance
 * QoS phenomenon from Leverich & Kozyrakis.
 *
 * An 8-node cluster (200 Gbit/s, 2 us network): one 4-core server node
 * runs memcached with 4 threads, 5 threads, or 4 threads pinned
 * one-per-core; the remaining seven nodes run mutilate-style open-loop
 * load generators. Expected shape: with 5 threads on 4 cores the 95th
 * percentile blows up while the median stays put; 4 unpinned threads
 * show an elevated mid-load tail that pinning smooths out, with the
 * curves overlapping at high load.
 */

#include <memory>
#include <vector>

#include "apps/memcached.hh"
#include "apps/mutilate.hh"
#include "bench/common.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

struct Point
{
    double qps = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
};

Point
runPoint(uint32_t threads, bool pinned, double target_qps,
         double measure_ms)
{
    TargetClock clk;
    ClusterConfig cc;
    cc.net.rxQueues = 4; // multi-queue NIC: RSS across two softirqs
    bench::applyClusterFlags(cc);
    Cluster cluster(topologies::singleTor(8), cc);

    MemcachedConfig mc;
    mc.threads = threads;
    mc.pinned = pinned;
    MemcachedServer server(cluster.node(0), mc);
    server.start();

    const double warmup_ms = 4.0;
    std::vector<std::unique_ptr<MutilateClient>> clients;
    for (size_t n = 1; n < 8; ++n) {
        MutilateConfig lc;
        lc.serverIp = Cluster::ipFor(0);
        lc.serverThreads = threads;
        lc.connections = threads;
        lc.qps = target_qps / 7.0;
        lc.seed = 100 + n;
        lc.measureFrom = clk.cyclesFromUs(warmup_ms * 1000.0);
        lc.measureUntil =
            clk.cyclesFromUs((warmup_ms + measure_ms) * 1000.0);
        clients.push_back(
            std::make_unique<MutilateClient>(cluster.node(n), lc));
        clients.back()->start();
    }

    cluster.runUs((warmup_ms + measure_ms) * 1000.0 + 2000.0);

    Histogram merged;
    double achieved = 0.0;
    for (auto &client : clients) {
        for (double s : client->stats().latencyCycles.samples())
            merged.sample(s);
        achieved += client->stats().achievedQps(clk.frequencyGhz());
    }
    Point p;
    p.qps = achieved;
    p.p50_us = clk.usFromCycles(static_cast<Cycles>(merged.percentile(50)));
    p.p95_us = clk.usFromCycles(static_cast<Cycles>(merged.percentile(95)));
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_fig7_memcached_imbalance");
    bench::banner("Figure 7",
                  "memcached tail latency: thread imbalance on a 4-core "
                  "server");
    double measure_ms = bench::fullScale() ? 30.0 : 12.0;
    std::vector<double> loads = {20000, 60000, 100000, 140000, 180000};
    if (bench::fullScale())
        loads.push_back(220000);

    struct Config
    {
        const char *label;
        uint32_t threads;
        bool pinned;
    };
    const Config configs[] = {{"4 threads", 4, false},
                              {"5 threads", 5, false},
                              {"4 threads pinned", 4, true}};

    Table t({"Target QPS", "Config", "Achieved QPS", "50th pct (us)",
             "95th pct (us)"});
    for (double qps : loads) {
        for (const Config &config : configs) {
            Point p = runPoint(config.threads, config.pinned, qps,
                               measure_ms);
            t.addRow({Table::fmt(qps, 0), config.label,
                      Table::fmt(p.qps, 0), Table::fmt(p.p50_us, 1),
                      Table::fmt(p.p95_us, 1)});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Expected shape (paper Fig. 7): 5-thread 95th pct far "
                "above the 4-thread curves while medians overlap; the "
                "unpinned 4-thread tail tracks the 5-thread curve at "
                "low/mid load and drops to the pinned curve at high "
                "load.\n");
    return 0;
}
