/**
 * @file
 * Round-barrier latency of the shard-transport bridge fabrics (paper
 * Section III-B: token channels ride "whatever fabric the host
 * platform offers" — the fabric choice sets the floor on distributed
 * simulation rate, because every quantum ends in one barrier).
 *
 * Workload: two raw ShardTransports on two threads, one bidirectional
 * cross-shard link, one small token batch per direction per round —
 * the steady-state shape of a sharded Cluster with the simulation work
 * stripped away, so the measured ns/round is almost pure transport.
 * Fabrics: AF_UNIX socketpair (the kernel-socket baseline) and the
 * lock-free shared-memory rings (--shard-shm-ring sizes them), the
 * two that in-process ranks (manager/local_ranks) ride.
 *
 * The headline number is the shm-vs-unix speedup: the rings replace
 * two kernel round trips per barrier (send + blocking recv) with
 * cache-line traffic.
 *
 * A second, skewed case gives each rank 300 us of busy work on
 * alternate rounds (rank 0 on even rounds, rank 1 on odd ones), as
 * uneven advance phases do in a real 2-rank simulation. Every barrier
 * then waits far longer than a reader's spin window, so it measures
 * how fast a parked reader wakes: the ideal is 300 us per round, and
 * anything above it is wake-up latency. Results land in
 * BENCH_shm.json. The exit code is 0 unless the run itself fails:
 * host timing is reported, never asserted.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/table.hh"
#include "bench/common.hh"
#include "net/remote/shard_transport.hh"
#include "net/remote/socket.hh"

using namespace firesim;

namespace
{

constexpr Cycles kQuantum = 400;

/** Busy work per skewed round, on one rank at a time. */
constexpr auto kSkewWork = std::chrono::microseconds(300);
constexpr double kSkewIdealNs =
    std::chrono::duration<double, std::nano>(kSkewWork).count();

enum class Fabric
{
    Unix,
    Shm,
};

const char *
fabricName(Fabric f)
{
    switch (f) {
      case Fabric::Unix:
        return "unix";
      case Fabric::Shm:
        return "shm";
    }
    return "?";
}

/** One rank's half of the benchmark mesh. */
struct Rank
{
    std::unique_ptr<ShardTransport> transport;
    TokenChannel rx{kQuantum, kQuantum};
};

/** Build the two-rank mesh over @p fabric. Link id 0 flows 0 -> 1,
 *  link id 1 flows 1 -> 0, so every barrier is a real round trip. */
void
buildMesh(Fabric fabric, Rank &r0, Rank &r1)
{
    ShardSpec spec0, spec1;
    spec0.rank = 0;
    spec1.rank = 1;
    spec0.shards = spec1.shards = 2;
    spec0.shmRingBytes = spec1.shmRingBytes =
        bench::flags().shard.shmRingBytes;
    if (fabric == Fabric::Shm)
        spec0.transport = spec1.transport = TransportKind::Shm;

    auto [fd0, fd1] = localSocketPair();
    std::vector<std::pair<uint32_t, SocketFd>> v0, v1;
    v0.emplace_back(1, std::move(fd0));
    v1.emplace_back(0, std::move(fd1));
    r0.transport = ShardTransport::fromFds(spec0, std::move(v0), 7);
    r1.transport = ShardTransport::fromFds(spec1, std::move(v1), 7);

    r0.transport->bindTxLink(0, 1);
    r1.transport->bindRxChannel(0, 0, &r1.rx);
    r1.transport->bindTxLink(1, 0);
    r0.transport->bindRxChannel(1, 1, &r0.rx);
    r0.rx.setLabel("bench 0<-1");
    r1.rx.setLabel("bench 1<-0");
}

/** Drive @p rounds barriers on one rank: pop the inbound batch, ship
 *  one small batch, barrier. Mirrors the fabric's round discipline.
 *  With @p skewed, rank @p tx_link busy-waits kSkewWork first on the
 *  rounds whose parity matches it. */
void
driveRank(Rank &rank, uint32_t tx_link, uint64_t rounds, bool skewed)
{
    for (uint64_t r = 0; r < rounds; ++r) {
        if (skewed && r % 2 == tx_link) {
            auto until = std::chrono::steady_clock::now() + kSkewWork;
            while (std::chrono::steady_clock::now() < until) {
            }
        }
        rank.rx.pop();
        TokenBatch out(Cycles(r) * kQuantum, kQuantum);
        Flit f;
        f.offset = static_cast<uint32_t>(r % kQuantum);
        f.size = 8;
        for (int b = 0; b < 8; ++b)
            f.data[b] = static_cast<uint8_t>(r >> (b * 8));
        f.last = true;
        out.push(f);
        rank.transport->onTxBatch(tx_link, out);
        rank.transport->onRoundComplete(r, Cycles(r) * kQuantum);
    }
}

/** Best-of-@p trials ns/round for @p fabric. */
double
measure(Fabric fabric, uint64_t rounds, int trials, bool skewed)
{
    double best = 0.0;
    for (int t = 0; t < trials; ++t) {
        Rank r0, r1;
        buildMesh(fabric, r0, r1);
        std::thread peer([&] { driveRank(r1, 1, rounds, skewed); });
        bench::Stopwatch watch;
        driveRank(r0, 0, rounds, skewed);
        double ns =
            watch.seconds() * 1e9 / static_cast<double>(rounds);
        peer.join();
        r0.transport->shutdown();
        r1.transport->shutdown();
        if (t == 0 || ns < best)
            best = ns;
    }
    return best;
}

void
writeBenchJson(const char *path, uint64_t rounds, const double *ns,
               uint64_t skew_rounds, const double *skew_ns)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "could not open %s for writing\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"shard_transport_barrier\",\n"
                 "  \"rounds\": %llu,\n"
                 "  \"ring_bytes\": %zu,\n"
                 "  \"barrier_ns\": {\n"
                 "    \"unix\": %.1f,\n"
                 "    \"shm\": %.1f\n"
                 "  },\n"
                 "  \"shm_speedup_vs_unix\": %.3f,\n"
                 "  \"skewed\": {\n"
                 "    \"rounds\": %llu,\n"
                 "    \"ideal_ns\": %.1f,\n"
                 "    \"round_ns\": {\n"
                 "      \"unix\": %.1f,\n"
                 "      \"shm\": %.1f\n"
                 "    }\n"
                 "  }\n"
                 "}\n",
                 (unsigned long long)rounds,
                 bench::flags().shard.shmRingBytes,
                 ns[0], ns[1], ns[1] > 0 ? ns[0] / ns[1] : 0.0,
                 (unsigned long long)skew_rounds, kSkewIdealNs,
                 skew_ns[0], skew_ns[1]);
    std::fclose(f);
    std::printf("Results written to %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCommonFlags(argc, argv);
    bench::banner("shard-transport",
                  "round-barrier latency across bridge fabrics");

    const uint64_t rounds = bench::fullScale() ? 400000 : 40000;
    const int trials = 3;
    std::printf("%llu rounds per trial, best of %d; one 8-byte flit "
                "per direction per round\n\n",
                (unsigned long long)rounds, trials);

    double ns[2] = {0, 0};
    Fabric order[2] = {Fabric::Unix, Fabric::Shm};
    Table table({"fabric", "ns/round", "rounds/s", "vs unix"});
    for (int i = 0; i < 2; ++i) {
        ns[i] = measure(order[i], rounds, trials, false);
        table.addRow({fabricName(order[i]), Table::fmt(ns[i], 0),
                      Table::fmt(1e9 / ns[i], 0),
                      Table::fmt(ns[0] > 0 ? ns[0] / ns[i] : 0.0, 2) +
                          "x"});
    }
    std::printf("%s", table.render().c_str());

    std::printf("\n%s\n",
                bench::paperRef("same-host links ride shared memory; "
                                "the socket hop disappears from the "
                                "round barrier")
                    .c_str());
    if (ns[1] < ns[0]) {
        std::printf("shm rings beat the AF_UNIX barrier by %.2fx\n",
                    ns[0] / ns[1]);
    } else {
        std::printf("WARNING: shm (%.0f ns) did not beat unix "
                    "(%.0f ns) on this host\n",
                    ns[1], ns[0]);
    }

    const uint64_t skew_rounds = bench::fullScale() ? 20000 : 2000;
    std::printf("\nSkewed rounds: %llu per trial, best of %d; each rank "
                "busy-waits %.0f us on alternate rounds\n\n",
                (unsigned long long)skew_rounds, trials,
                kSkewIdealNs / 1e3);
    double skew_ns[2] = {0, 0};
    Table skew({"fabric", "ns/round", "ideal", "wake-up ns/round"});
    for (int i = 0; i < 2; ++i) {
        skew_ns[i] = measure(order[i], skew_rounds, trials, true);
        skew.addRow({fabricName(order[i]), Table::fmt(skew_ns[i], 0),
                     Table::fmt(kSkewIdealNs, 0),
                     Table::fmt(skew_ns[i] - kSkewIdealNs, 0)});
    }
    std::printf("%s", skew.render().c_str());

    writeBenchJson("BENCH_shm.json", rounds, ns, skew_rounds, skew_ns);
    return 0;
}
