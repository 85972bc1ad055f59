/**
 * @file
 * Shard partitioning for distributed simulation (paper Section III-B:
 * "simulations are automatically partitioned across FPGAs and
 * machines" by the manager).
 *
 * A ShardPlan is a pure function of the topology and the ShardSpec's
 * shard count and owner map. ShardSpec, the one struct that holds
 * every shard setting, lives beside the transport that reads the rest
 * of it (net/remote/shard_transport.hh). Every shard
 * process computes the same plan from the same inputs, so no
 * coordination is needed to agree on who owns what — the plan's
 * topoHash is exchanged in the transport's Hello handshake to catch
 * processes launched with diverging configs.
 *
 * Global numbering matches the single-process Cluster builder exactly
 * (preorder switch indices, DFS server indices), so a sharded run's
 * component names, MACs, IPs, and per-component statistics line up
 * one-to-one with the single-process run — the basis of the
 * byte-identity tests in tests/dist.
 *
 * Partitioning policy: by default servers are split into contiguous
 * blocks (server j goes to rank j*shards/nServers) and each switch
 * follows the first server of its subtree. Contiguous blocks keep
 * each ToR with its servers for the common balanced topologies,
 * minimizing cross-shard links (which each cost one socket round trip
 * of pipeline slack the fabric already hides). build() also accepts
 * an arbitrary deterministic server->rank map (ShardSpec::owners,
 * which the parity matrix's owner-map cell uses); the map is folded into
 * planHash so shards launched with diverging maps are caught at
 * rendezvous.
 */

#ifndef FIRESIM_MANAGER_SHARD_HH
#define FIRESIM_MANAGER_SHARD_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "manager/topology.hh"
#include "net/remote/shard_transport.hh"

namespace firesim
{

/**
 * The deterministic partition of one topology over N shards. All
 * indices are *global* (whole-topology numbering); each Cluster keeps
 * its own global-to-local maps for the components it instantiates.
 */
struct ShardPlan
{
    /** One parent-switch-to-child link, in builder creation order.
     *  Link k's token directions get global ids 2k (parent -> child)
     *  and 2k+1 (child -> parent). */
    struct Link
    {
        uint32_t parentSwitch = 0; //!< global switch index
        uint32_t parentPort = 0;
        bool childIsSwitch = false;
        uint32_t child = 0;     //!< global switch or server index
        uint32_t childPort = 0; //!< uplink port (switch) or 0 (server)
    };

    uint32_t shards = 1;
    uint32_t nSwitches = 0;
    uint32_t nServers = 0;
    std::vector<uint32_t> switchOwner; //!< per global switch index
    std::vector<uint32_t> serverOwner; //!< per global server index
    std::vector<Link> links;           //!< builder creation order
    /** Per switch: downlink port -> global server indices reachable
     *  through it (the MAC-table input, now shard-independent). */
    std::vector<std::vector<std::vector<uint32_t>>> portServers;
    /** Per switch: total ports including the uplink. */
    std::vector<uint32_t> switchPorts;
    /** FNV-1a over the topology structure and the timing-relevant
     *  config only — independent of the shard count and owner map, so
     *  any two plans over the same target agree. Seeds planHash. */
    uint64_t topoHash = 0;
    /** topoHash further mixed with the shard count and the full
     *  server->rank map — the value exchanged in the transport Hello,
     *  so processes launched with diverging plans (not just diverging
     *  topologies) are caught at rendezvous. */
    uint64_t planHash = 0;

    /**
     * Build the plan with the default contiguous-block owner map.
     * @p link_latency / @p switch_latency / @p functional_window are
     * folded into topoHash because shards disagreeing on them would
     * desynchronize cycle-for-cycle.
     */
    static ShardPlan build(const SwitchSpec &root, uint32_t shards,
                           Cycles link_latency, Cycles switch_latency,
                           Cycles functional_window);

    /**
     * Build the plan with an explicit server->rank map @p owners
     * (global server index -> owning rank). Must name every server,
     * keep every rank non-empty, and be identical on every launching
     * process (enforced via planHash at rendezvous). Switches still
     * follow the lowest-numbered server of their subtree.
     */
    static ShardPlan build(const SwitchSpec &root, uint32_t shards,
                           Cycles link_latency, Cycles switch_latency,
                           Cycles functional_window,
                           std::vector<uint32_t> owners);

    uint32_t ownerOfLink(const Link &l, bool child_side) const
    {
        if (child_side)
            return l.childIsSwitch ? switchOwner[l.child]
                                   : serverOwner[l.child];
        return switchOwner[l.parentSwitch];
    }

    /** Global link id of the tokens flowing parent -> child on link
     *  @p k (arriving at the child). */
    static uint32_t downLinkId(size_t k)
    {
        return static_cast<uint32_t>(2 * k);
    }
    /** Global link id of the tokens flowing child -> parent. */
    static uint32_t upLinkId(size_t k)
    {
        return static_cast<uint32_t>(2 * k + 1);
    }
};

} // namespace firesim

#endif // FIRESIM_MANAGER_SHARD_HH
