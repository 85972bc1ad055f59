/**
 * @file
 * Section IV-B: iperf3-style bandwidth over the simulated OS stack.
 *
 * The paper measures ~1.4 Gbit/s of TCP goodput between two nodes on a
 * 200 Gbit/s link and attributes the gap to the single-issue in-order
 * Rocket core running the Linux network stack. This harness streams
 * MTU-sized segments through the simulated kernel's socket path and
 * reports the achieved goodput, plus a sweep over segment sizes to
 * show the per-packet-cost bottleneck directly.
 */

#include "apps/iperf.hh"
#include "bench/common.hh"
#include "manager/cluster.hh"
#include "manager/topology.hh"

using namespace firesim;

namespace
{

double
runOnce(uint32_t segment_bytes, double duration_ms)
{
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    Cluster cluster(topologies::singleTor(2), cc);
    IperfResult result;
    launchIperfServer(cluster.node(0), 5201, 4, &result);
    IperfConfig ic;
    ic.serverIp = Cluster::ipFor(0);
    ic.segmentBytes = segment_bytes;
    ic.duration = TargetClock().cyclesFromUs(duration_ms * 1000.0);
    launchIperfClient(cluster.node(1), ic);
    cluster.runUs(duration_ms * 1000.0 + 500.0);
    return result.gbps(cluster.config().freqGhz);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::requireSingleShard("bench_sec4b_iperf");
    bench::banner("Section IV-B",
                  "iperf3 bandwidth over the OS network stack");
    double ms = bench::fullScale() ? 20.0 : 5.0;

    Table t({"Segment (bytes)", "Goodput (Gbit/s)", "Reference"});
    for (uint32_t seg : {256u, 512u, 1024u, 1400u}) {
        double gbps = runOnce(seg, ms);
        std::string note = seg == 1400
                               ? bench::paperRef("1.4 Gbit/s at the MTU")
                               : "";
        t.addRow({Table::fmt(seg, 0), Table::fmt(gbps, 2), note});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Nominal link rate: 200 Gbit/s — the software stack is "
                "the bottleneck (Section IV-B).\n");
    return 0;
}
