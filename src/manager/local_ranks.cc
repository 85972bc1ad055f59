#include "manager/local_ranks.hh"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "net/remote/socket.hh"

namespace firesim
{

void
runLocalRanks(uint32_t n, const std::function<SwitchSpec()> &topology,
              const ClusterConfig &config,
              const std::function<void(Cluster &)> &body)
{
    FS_ASSERT(n >= 1, "runLocalRanks needs at least one rank");
    std::vector<SwitchSpec> topos;
    std::vector<std::vector<std::pair<uint32_t, SocketFd>>> peers(n);
    for (uint32_t a = 0; a < n; ++a) {
        topos.push_back(topology());
        for (uint32_t b = a + 1; b < n; ++b) {
            auto [fa, fb] = localSocketPair();
            peers[a].emplace_back(b, std::move(fa));
            peers[b].emplace_back(a, std::move(fb));
        }
    }
    // A rank that throws still destroys its Cluster, whose Bye lets
    // the other ranks finish degraded; its exception is rethrown once
    // every rank has been joined.
    std::vector<std::exception_ptr> errors(n);
    auto runRank = [&](uint32_t rank) {
        try {
            ClusterConfig cc = config;
            cc.shard.shards = n;
            cc.shard.rank = rank;
            Cluster clu(std::move(topos[rank]), std::move(cc),
                        std::move(peers[rank]));
            body(clu);
        } catch (...) {
            errors[rank] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> rest;
        for (uint32_t r = 1; r < n; ++r)
            rest.emplace_back(runRank, r);
        runRank(0);
    } // joins every other rank
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace firesim
