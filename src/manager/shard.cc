#include "manager/shard.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace firesim
{

namespace
{

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void
mix(uint64_t &h, uint64_t v)
{
    // FNV-1a a byte at a time: cheap, stable across platforms.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

struct Walker
{
    ShardPlan &plan;

    /** Depth-first numbering: assign this switch's global index,
     *  recurse into child switches (ports 0..), then attach this
     *  switch's servers. Returns the global index. */
    uint32_t
    walk(const SwitchSpec &spec, uint32_t depth)
    {
        uint32_t my_idx = plan.nSwitches++;
        plan.portServers.emplace_back(spec.downlinkCount());
        plan.switchPorts.push_back(spec.downlinkCount() +
                                   (depth > 0 ? 1 : 0));
        mix(plan.topoHash, 0x5357u); // 'SW'
        mix(plan.topoHash, spec.childSwitches().size());
        mix(plan.topoHash, spec.childServers().size());

        uint32_t port = 0;
        for (const auto &child : spec.childSwitches()) {
            uint32_t child_idx = walk(*child, depth + 1);
            plan.links.push_back(ShardPlan::Link{
                my_idx, port, true, child_idx, child->downlinkCount()});
            std::vector<uint32_t> under;
            for (const auto &per_port : plan.portServers[child_idx])
                under.insert(under.end(), per_port.begin(),
                             per_port.end());
            plan.portServers[my_idx][port] = std::move(under);
            ++port;
        }
        for (const ServerSpec &server : spec.childServers()) {
            uint32_t node_idx = plan.nServers++;
            mix(plan.topoHash, server.cores);
            plan.links.push_back(
                ShardPlan::Link{my_idx, port, false, node_idx, 0});
            plan.portServers[my_idx][port] = {node_idx};
            ++port;
        }
        return my_idx;
    }
};

/** Topology walk + validation; topoHash is complete (and owner-map
 *  independent) when this returns. */
ShardPlan
buildTopology(const SwitchSpec &root, uint32_t shards,
              Cycles link_latency, Cycles switch_latency,
              Cycles functional_window)
{
    FS_ASSERT(shards >= 1, "shard count must be >= 1");
    ShardPlan plan;
    plan.shards = shards;
    plan.topoHash = kFnvOffset;
    mix(plan.topoHash, link_latency);
    mix(plan.topoHash, switch_latency);
    mix(plan.topoHash, functional_window);

    Walker{plan}.walk(root, 0);

    if (plan.nServers == 0)
        fatal("cannot shard a topology with no servers");
    if (shards > plan.nServers)
        fatal("cannot split %u server(s) across %u shards",
              plan.nServers, shards);

    mix(plan.topoHash, plan.nSwitches);
    mix(plan.topoHash, plan.nServers);
    return plan;
}

/** Install @p owners as the server->rank map: validate it, derive the
 *  switch owners, and seal planHash. */
void
assignOwners(ShardPlan &plan, std::vector<uint32_t> owners)
{
    if (owners.size() != plan.nServers)
        fatal("shard owner map names %zu server(s), topology has %u",
              owners.size(), plan.nServers);
    std::vector<uint32_t> perRank(plan.shards, 0);
    for (uint32_t j = 0; j < plan.nServers; ++j) {
        if (owners[j] >= plan.shards)
            fatal("shard owner map sends server %u to rank %u "
                  "(only %u shard(s))",
                  j, owners[j], plan.shards);
        ++perRank[owners[j]];
    }
    for (uint32_t r = 0; r < plan.shards; ++r)
        if (perRank[r] == 0)
            fatal("shard owner map leaves rank %u with no servers", r);
    plan.serverOwner = std::move(owners);

    // Switches: follow the first server of the subtree, so a ToR lives
    // with its servers and only inter-switch trunks cross shards. A
    // (degenerate) server-less switch falls back to rank 0.
    plan.switchOwner.assign(plan.nSwitches, 0);
    for (uint32_t s = 0; s < plan.nSwitches; ++s) {
        uint32_t first = plan.nServers;
        for (const auto &per_port : plan.portServers[s])
            for (uint32_t server : per_port)
                first = std::min(first, server);
        plan.switchOwner[s] =
            first < plan.nServers ? plan.serverOwner[first] : 0;
    }

    plan.planHash = plan.topoHash;
    mix(plan.planHash, plan.shards);
    for (uint32_t owner : plan.serverOwner)
        mix(plan.planHash, owner);
}

} // namespace

ShardPlan
ShardPlan::build(const SwitchSpec &root, uint32_t shards,
                 Cycles link_latency, Cycles switch_latency,
                 Cycles functional_window)
{
    ShardPlan plan = buildTopology(root, shards, link_latency,
                                   switch_latency, functional_window);

    // Servers: contiguous blocks, deterministically balanced.
    std::vector<uint32_t> owners(plan.nServers);
    for (uint32_t j = 0; j < plan.nServers; ++j)
        owners[j] = static_cast<uint32_t>(
            static_cast<uint64_t>(j) * shards / plan.nServers);
    assignOwners(plan, std::move(owners));
    return plan;
}

ShardPlan
ShardPlan::build(const SwitchSpec &root, uint32_t shards,
                 Cycles link_latency, Cycles switch_latency,
                 Cycles functional_window, std::vector<uint32_t> owners)
{
    ShardPlan plan = buildTopology(root, shards, link_latency,
                                   switch_latency, functional_window);
    assignOwners(plan, std::move(owners));
    return plan;
}

} // namespace firesim
