/**
 * @file
 * Table III / Section V-C: memcached across the simulated datacenter.
 *
 * The paper's 1024-node, three-level (ToR / aggregation / root)
 * datacenter runs 512 memcached servers and 512 mutilate load
 * generators in three pairings: cross-ToR (same rack), cross-
 * aggregation, and cross-datacenter. Expected shape: each extra pair
 * of switch layers crossed adds ~4 link latencies + switching (~8 us
 * at 2 us links) to the 50th percentile; the 95th percentile shows no
 * predictable change (dominated by other variability); aggregate QPS
 * dips slightly (load is limited to ~10k requests/s per server, so the
 * effect is latency, not congestion).
 *
 * Scale: the default run uses a reduced datacenter with the identical
 * three-level shape (64 nodes: 4 aggs x 2 ToRs x 8 servers); set
 * FIRESIM_FULL=1 for the paper's full 1024-node instantiation
 * (32 servers per ToR, 8 ToRs per agg, 4 aggs) — slow on one host CPU.
 * Deployment economics are reported for the full configuration either
 * way.
 */

#include <memory>
#include <vector>

#include "apps/memcached.hh"
#include "apps/mutilate.hh"
#include "bench/common.hh"
#include "host/deployment.hh"
#include "host/perf_model.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

enum class Pairing { CrossTor, CrossAgg, CrossDatacenter };

const char *
pairingName(Pairing p)
{
    switch (p) {
      case Pairing::CrossTor: return "Cross-ToR";
      case Pairing::CrossAgg: return "Cross-aggregation";
      default: return "Cross-datacenter";
    }
}

struct DcShape
{
    uint32_t aggs;
    uint32_t torsPerAgg;
    uint32_t serversPerTor;

    uint32_t nodes() const { return aggs * torsPerAgg * serversPerTor; }
    uint32_t
    nodeIndex(uint32_t agg, uint32_t tor, uint32_t server) const
    {
        return (agg * torsPerAgg + tor) * serversPerTor + server;
    }
};

/**
 * Pair each server with a load generator per the pairing policy.
 * Within each ToR, the first half of the servers are memcached hosts
 * and the second half are generators.
 */
std::vector<std::pair<uint32_t, uint32_t>>
makePairs(const DcShape &shape, Pairing pairing)
{
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    uint32_t half = shape.serversPerTor / 2;
    for (uint32_t agg = 0; agg < shape.aggs; ++agg) {
        for (uint32_t tor = 0; tor < shape.torsPerAgg; ++tor) {
            for (uint32_t s = 0; s < half; ++s) {
                uint32_t server = shape.nodeIndex(agg, tor, s);
                uint32_t cagg = agg, ctor = tor;
                switch (pairing) {
                  case Pairing::CrossTor:
                    break; // same rack
                  case Pairing::CrossAgg:
                    ctor = (tor + 1) % shape.torsPerAgg;
                    break;
                  case Pairing::CrossDatacenter:
                    cagg = (agg + 1) % shape.aggs;
                    break;
                }
                uint32_t client =
                    shape.nodeIndex(cagg, ctor, half + s);
                pairs.emplace_back(server, client);
            }
        }
    }
    return pairs;
}

struct Row
{
    double p50_us = 0.0;
    double p95_us = 0.0;
    double qps = 0.0;
};

Row
runPairing(const DcShape &shape, Pairing pairing, double per_server_qps,
           double measure_ms)
{
    TargetClock clk;
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    Cluster cluster(topologies::threeLevel(shape.aggs, shape.torsPerAgg,
                                           shape.serversPerTor),
                    cc);

    auto pairs = makePairs(shape, pairing);
    std::vector<std::unique_ptr<MemcachedServer>> servers;
    std::vector<std::unique_ptr<MutilateClient>> clients;
    const double warmup_ms = 3.0;

    for (auto [server_idx, client_idx] : pairs) {
        MemcachedConfig mc;
        servers.push_back(std::make_unique<MemcachedServer>(
            cluster.node(server_idx), mc));
        servers.back()->start();

        MutilateConfig lc;
        lc.serverIp = Cluster::ipFor(server_idx);
        lc.serverThreads = mc.threads;
        lc.connections = mc.threads;
        lc.qps = per_server_qps;
        lc.seed = 1000 + client_idx;
        lc.measureFrom = clk.cyclesFromUs(warmup_ms * 1000.0);
        lc.measureUntil =
            clk.cyclesFromUs((warmup_ms + measure_ms) * 1000.0);
        clients.push_back(std::make_unique<MutilateClient>(
            cluster.node(client_idx), lc));
        clients.back()->start();
    }

    cluster.runUs((warmup_ms + measure_ms) * 1000.0 + 1500.0);

    Histogram merged;
    double qps = 0.0;
    for (auto &client : clients) {
        for (double s : client->stats().latencyCycles.samples())
            merged.sample(s);
        qps += client->stats().achievedQps(clk.frequencyGhz());
    }
    Row row;
    row.p50_us = clk.usFromCycles(static_cast<Cycles>(merged.percentile(50)));
    row.p95_us = clk.usFromCycles(static_cast<Cycles>(merged.percentile(95)));
    row.qps = qps;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_tableiii_datacenter_memcached");
    DcShape shape = bench::fullScale() ? DcShape{4, 8, 32}
                                       : DcShape{4, 2, 8};
    double measure_ms = bench::fullScale() ? 20.0 : 10.0;
    bench::banner("Table III",
                  csprintf("%u-node datacenter memcached (three-level "
                           "tree, %u servers + %u load generators)",
                           shape.nodes(), shape.nodes() / 2,
                           shape.nodes() / 2));

    Table t({"Pairing", "50th pct (us)", "95th pct (us)",
             "Aggregate QPS"});
    double prev_p50 = 0.0;
    for (Pairing pairing : {Pairing::CrossTor, Pairing::CrossAgg,
                            Pairing::CrossDatacenter}) {
        Row row = runPairing(shape, pairing, 10000.0, measure_ms);
        t.addRow({pairingName(pairing), Table::fmt(row.p50_us, 2),
                  Table::fmt(row.p95_us, 2), Table::fmt(row.qps, 0)});
        if (prev_p50 > 0.0) {
            std::printf("  50th pct step %s: +%.2f us (paper: ~+8 us per "
                        "extra layer: 4 links + 2 switch hops)\n",
                        pairingName(pairing), row.p50_us - prev_p50);
        }
        prev_p50 = row.p50_us;
    }
    std::printf("\n%s\n", t.render().c_str());
    std::printf("Paper (Table III, 1024 nodes): 79.26/128.15 us @ "
                "4.69M QPS cross-ToR; 87.10/111.25 @ 4.49M cross-agg; "
                "93.82/119.50 @ 4.08M cross-datacenter.\n\n");

    // Deployment economics for the full-scale run (Section V-C).
    SwitchSpec full = topologies::threeLevel(4, 8, 32);
    DeploymentPlan plan = planDeployment(full, true);
    SimRateEstimate est = estimateSimRate(full, plan, 6400, 3.2);
    std::printf("Full 1024-node deployment: %s\n", plan.summary().c_str());
    std::printf("  predicted rate %.2f MHz; $%.0f/hour spot, $%.0f/hour "
                "on-demand, $%.1fM of FPGAs\n",
                est.targetMhz, plan.spotPerHour(), plan.onDemandPerHour(),
                plan.fpgaCapex() / 1e6);
    return 0;
}
