/**
 * @file
 * The simulation manager's build-and-deploy step (Section III-B3).
 *
 * Given a SwitchSpec topology tree and a ClusterConfig, the Cluster:
 *  - instantiates one Switch model per SwitchSpec and one NodeSystem
 *    (server blade + simulated OS + network stack) per ServerSpec,
 *  - automatically assigns MAC and IP addresses to every server,
 *  - populates the static MAC switching table of every switch (each
 *    switch knows, for every server MAC, which port leads toward it),
 *  - pre-populates every node's ARP table,
 *  - wires everything into a TokenFabric with the configured link
 *    latency, and boots the network stacks.
 *
 * Port convention on an N-downlink switch: ports 0..N-1 are downlinks
 * in child order (switches first, then servers); the uplink, when the
 * switch is not the root, is port N.
 */

#ifndef FIRESIM_MANAGER_CLUSTER_HH
#define FIRESIM_MANAGER_CLUSTER_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/health_monitor.hh"
#include "fault/injector.hh"
#include "manager/shard.hh"
#include "manager/topology.hh"
#include "net/fabric.hh"
#include "net/remote/shard_transport.hh"
#include "node/server_blade.hh"
#include "os/netstack.hh"
#include "os/simos.hh"
#include "switchmodel/switch.hh"
#include "telemetry/monitor.hh"
#include "telemetry/telemetry.hh"

namespace firesim
{

/** (section name, bytes) pairs; see Cluster::stateImage. */
using StateImage = std::vector<std::pair<std::string, std::string>>;

/** Everything that makes one simulated server usable: the blade
 *  hardware, the OS, and the network stack bound together. */
class NodeSystem
{
  public:
    NodeSystem(BladeConfig blade_cfg, OsConfig os_cfg, NetConfig net_cfg,
               Ip ip, const ArpTable &arp);

    /** Tear down threads before the stack they reference (see
     *  SimOS::shutdown). */
    ~NodeSystem() { os_.shutdown(); }

    ServerBlade &blade() { return blade_; }
    SimOS &os() { return os_; }
    NetStack &net() { return net_; }
    Ip ip() const { return net_.ip(); }
    MacAddr mac() const { return blade_.config().mac; }
    const std::string &name() const { return blade_.config().name; }

    /** Boot the node's network stack. Called by Cluster::Cluster. */
    void start() { net_.start(); }

  private:
    ServerBlade blade_;
    SimOS os_;
    NetStack net_;
};

/** Cluster-wide defaults; per-server overrides come from ServerSpec. */
struct ClusterConfig
{
    /** Target link latency in cycles (paper default: 2 us = 6400). */
    Cycles linkLatency = 6400;
    /** Port-to-port switching latency in cycles (Fig. 5 uses 10). */
    Cycles switchLatency = 10;
    /** Switch output drop bound in cycles (finite buffering). */
    Cycles switchDropBound = 65536;
    /** Target clock in GHz. */
    double freqGhz = 3.2;
    /** Kernel model parameters for every node. */
    OsConfig os;
    /** Network stack parameters for every node. */
    NetConfig net;
    /** NIC parameters for every node. */
    NicConfig nic;
    /** Base seed; node i uses seed base + i. */
    uint64_t seed = 42;
    /**
     * Cycle-exact RocketCore harts per blade (0 = none, the default:
     * the OS/application model drives each node). Clamped to the
     * blade's core count. Harts boot parked; tests and experiments arm
     * them via node(i).blade().hart(h).reset(pc) after loading code.
     */
    uint32_t harts = 0;
    /** Core template for every instantiated hart — carries the
     *  decode-cache settings (CoreConfig::decodeCache, entries). */
    CoreConfig hart;
    /**
     * Nonzero switches the network to purely functional simulation
     * with this window in cycles (Section VII's performance/accuracy
     * extreme): frames still flow, timing is quantized to the window,
     * host rounds shrink accordingly. 0 = cycle-exact (default).
     */
    Cycles functionalWindow = 0;
    /**
     * Out-of-band telemetry (src/telemetry): stat registry, AutoCounter
     * sampling, end-of-run dumps. Off by default — with enabled false
     * the Cluster allocates nothing and attaches no observers.
     */
    TelemetryConfig telemetry;
    /**
     * Live observability (telemetry/monitor.hh): heartbeat JSONL,
     * status lines, Prometheus metrics file, straggler detection. Off
     * by default — with MonitorConfig::enabled() false the Cluster
     * allocates no monitor and attaches no observer.
     */
    MonitorConfig monitor;
    /**
     * Host threads advancing endpoints inside each fabric round — the
     * in-process analogue of the paper's one-blade-per-FPGA scale-out.
     * 1 (default) is single-threaded; any value yields bit-identical
     * simulation results and telemetry (TokenFabric round phases).
     */
    unsigned parallelHosts = 1;
    /**
     * Distributed simulation (manager/shard.hh): with shards > 1 this
     * process builds only its own shard of the topology and carries
     * cross-shard links over the socket token transport (net/remote).
     * Every shard must be launched with the same topology and config,
     * differing only in `shard.rank`. Simulation results — component
     * stats, AutoCounter samples, instruction traces — are
     * byte-identical to the single-process run.
     */
    ShardSpec shard;
};

class Cluster
{
  public:
    /**
     * Build and deploy the simulation for @p root. The Cluster takes
     * ownership of the topology tree. With config.shard.shards > 1 the
     * shard peers are reached by TCP rendezvous (ShardSpec::basePort).
     */
    Cluster(SwitchSpec root, ClusterConfig config);

    /**
     * Sharded build over pre-connected sockets: @p peer_fds carries
     * one (peer_rank, fd) pair per peer shard, AF_UNIX socketpair
     * halves for same-host shards. runLocalRanks (manager/local_ranks)
     * builds in-process ranks this way; a forked rank process takes
     * its halves directly. ShardSpec::transport Shm upgrades each fd
     * to shared-memory rings. Peers passed to a single-process config
     * are an error.
     */
    Cluster(SwitchSpec root, ClusterConfig config,
            std::vector<std::pair<uint32_t, SocketFd>> peer_fds);

    /** Dumps telemetry into TelemetryConfig::dumpDir when configured. */
    ~Cluster();

    /** Advance the whole target by @p cycles: one fabric run(), or
     *  with a sampler one per sampling round, whose last is dense. */
    void run(Cycles cycles);

    /** Advance by @p us of target time: one run() call. */
    void runUs(double us) { run(clock().cyclesFromUs(us)); }

    Cycles now() const { return fabric_.now(); }
    TargetClock clock() const { return TargetClock(cfg.freqGhz); }

    size_t nodeCount() const { return nodes.size(); }
    size_t switchCount() const { return switches.size(); }
    NodeSystem &node(size_t i) { return *nodes.at(i); }
    Switch &switchAt(size_t i) { return *switches.at(i); }
    /** The root switch is always index 0. */
    Switch &rootSwitch() { return *switches.at(0); }
    TokenFabric &fabric() { return fabric_; }
    const ClusterConfig &config() const { return cfg; }

    /**
     * Human-readable end-of-run report: per-switch forwarding counters
     * and per-node NIC/stack/CPU statistics — the numbers the manager's
     * job-collection layer would gather from a real FireSim run.
     */
    std::string statsReport();

    /**
     * Create the HealthMonitor (if none yet) and attach a
     * FaultInjector driving @p plan. Call once, before running the
     * simulation; the same topology + plan + seed replays
     * bit-identically, and an empty plan leaves results bit-identical
     * to never calling this.
     */
    void injectFaults(const FaultPlan &plan);

    /**
     * The fault event log, created on demand (it is no fabric observer,
     * so it may be created at any time). The fault injector, peer-shard
     * loss and straggler detection record into it.
     */
    HealthMonitor &health();

    /**
     * Like health(), but the monitor is created with @p config. When a
     * monitor already exists its config is fixed; asking for a
     * different one is a user error.
     */
    HealthMonitor &health(const HealthConfig &config);

    /** The attached injector, or nullptr when no faults were injected. */
    FaultInjector *injector() { return injector_.get(); }

    /** The shard transport, or nullptr in single-process mode. */
    ShardTransport *shardTransport() { return transport_.get(); }

    /**
     * The telemetry bundle, or nullptr when ClusterConfig::telemetry
     * was not enabled. Every component counter is registered under
     * "cluster.<component>.*" in telemetry()->registry().
     */
    Telemetry *telemetry() { return telemetry_.get(); }

    /** The live heartbeat monitor, or nullptr when
     *  ClusterConfig::monitor was not enabled. */
    ClusterMonitor *clusterMonitor() { return clusterMonitor_.get(); }

    /**
     * Post-run health report: the fault events recorded, the rounds
     * each crashed endpoint sat out, per-switch fault-drop counters,
     * and every lost peer shard. Reports a healthy cluster when no
     * monitor was ever created.
     */
    std::string healthReport() const;

    /** The MAC assigned to server index @p i. */
    static MacAddr macFor(size_t i);
    /** The IP assigned to server index @p i. */
    static Ip ipFor(size_t i);

    /** The cluster's one ARP table (every server's IP -> MAC), shared
     *  by every local node's stack. */
    const ArpTable &arpTable() const { return arp_; }

    /** The deterministic shard plan this cluster was built under
     *  (single-process runs carry the trivial 1-shard plan). */
    const ShardPlan &plan() const { return plan_; }

    /**
     * This rank's simulated state at a round barrier (between run()
     * calls), one (section name, bytes) pair per component in a fixed
     * order, each holding that component's snapshotSave bytes:
     * "fabric" (round state), "chan<link>" per channel by global
     * directed-link id, "switch<i>", and "blade<i>", "os<i>", "net<i>"
     * per node by global index; then the rank-local "fault", "health",
     * "autocounter" and "stats" (the registry dump without host-timing
     * stats) when those components exist. The simulation is
     * deterministic, so two runs of one target agree on every section
     * at every barrier, whatever the worker count, transport or shard
     * plan; a sharded run's channel sections each live on exactly one
     * rank. Parity tests compare two live runs' images. Panics off a
     * round barrier.
     */
    StateImage stateImage() const;

  private:
    /** One direction of a cross-shard link: its global link id, the
     *  peer rank at the far end, and whether it arrives here. */
    struct CrossBinding
    {
        uint32_t linkId;
        uint32_t peer;
        bool rx;
    };

    /**
     * The one build path, behind both constructors. Computes the
     * ShardPlan (the trivial 1-shard plan in single-process mode) and
     * instantiates only the components this rank owns — with *global*
     * names, MACs, and IPs — wiring links between local components
     * through fabric channels and cross-shard links through the
     * transport. Single-process runs build no transport.
     */
    void build(std::vector<std::pair<uint32_t, SocketFd>> peer_fds);

    /** The shard plan config().shard asks for: explicit owners, then
     *  the placement policy; the trivial plan when not sharded. */
    ShardPlan resolvePlan() const;

    /**
     * Sharded builds only: connect the transport (caller's fds, else
     * TCP rendezvous), bind the cross-shard links, and record peer
     * loss in the health monitor.
     */
    void connectShards(const std::vector<CrossBinding> &cross,
                       std::vector<std::pair<uint32_t, SocketFd>> peer_fds);

    /** Build the telemetry bundle, register every component's stats,
     *  and attach the configured fabric observers. */
    void setupTelemetry();

    /** Build the observability plane — heartbeat monitor, transport
     *  latency and fatal-flush hooks — per ClusterConfig.
     *  Called by build(), after setupTelemetry(). */
    void setupObservability();

    SwitchSpec topo;
    ClusterConfig cfg;
    /** The shard plan build() derives the wiring from; trivial
     *  (1 shard, every owner 0) in single-process mode. */
    ShardPlan plan_;
    /** Built once in build(); declared before `nodes`, whose stacks
     *  hold references to it. */
    ArpTable arp_;
    // Local -> global component numbering (identity in single-process
    // mode): switchGlobal[i] is the global index of switches[i],
    // nodeGlobal[i] of nodes[i]. channelGlobalLink[c] is the global
    // directed link id carried by fabric channel c, which names its
    // state image section under every shard plan.
    std::vector<uint32_t> switchGlobal;
    std::vector<uint32_t> nodeGlobal;
    std::vector<uint32_t> channelGlobalLink;
    TokenFabric fabric_;
    std::unique_ptr<HealthMonitor> monitor_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<ShardTransport> transport_;
    std::vector<std::unique_ptr<NodeSystem>> nodes;
    std::vector<std::unique_ptr<Switch>> switches;
    // Observability plane.
    std::unique_ptr<ClusterMonitor> clusterMonitor_;
    // Declared last: the registry's probes read the components above,
    // so the telemetry bundle must be destroyed first.
    std::unique_ptr<Telemetry> telemetry_;
};

} // namespace firesim

#endif // FIRESIM_MANAGER_CLUSTER_HH
