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
#include "telemetry/aggregate.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/monitor.hh"
#include "telemetry/telemetry.hh"

namespace firesim
{

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
     *  decode-cache knobs (--decode-cache / --decode-cache-entries). */
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
     * sampling, host profiling. Off by default — with enabled false the
     * Cluster allocates nothing and attaches no observers.
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
     * Crash flight recorder (telemetry/flight_recorder.hh): a ring of
     * recent notable events dumped as a postmortem on fatal signals,
     * peer loss, or restore divergence. Off by default.
     */
    FlightRecorderConfig flightRecorder;
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
     * one (peer_rank, fd) pair per peer shard, typically AF_UNIX
     * socketpair halves for same-host shards (and the tests). Peers
     * passed to a single-process config are an error.
     */
    Cluster(SwitchSpec root, ClusterConfig config,
            std::vector<std::pair<uint32_t, SocketFd>> peer_fds);

    /**
     * Sharded build over caller-supplied transport bridges: one
     * (peer_rank, PeerLink) pair per peer shard — any fabric,
     * including loopbackLinkPair() for in-process tests. Peers passed
     * to a single-process config are an error.
     */
    Cluster(SwitchSpec root, ClusterConfig config,
            std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>>
                peer_links);

    /** Dumps telemetry into TelemetryConfig::dumpDir when configured. */
    ~Cluster();

    /** Advance the whole target by @p cycles. */
    void run(Cycles cycles) { fabric_.run(cycles); }

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
     * Attach a HealthMonitor (if none yet) and a FaultInjector driving
     * @p plan. Call once, before running the simulation; the same
     * topology + plan + seed replays bit-identically, and an empty
     * plan leaves results bit-identical to never calling this.
     */
    void injectFaults(const FaultPlan &plan);

    /**
     * The fabric health monitor, attached on demand. Converts
     * recoverable token-protocol anomalies into FaultEvents (instead
     * of aborts) from the moment it is first requested.
     */
    HealthMonitor &health();

    /**
     * Like health(), but the monitor is created with @p config. When a
     * monitor is already attached its config is fixed; asking for a
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

    /** The crash flight recorder, or nullptr when not enabled. */
    FlightRecorder *flightRecorder() { return recorder_.get(); }

    /** Rank 0's cross-shard stat aggregator, or nullptr (non-zero
     *  ranks, single-process mode, or telemetry off). */
    StatAggregator *aggregator() { return aggregator_.get(); }

    /**
     * Post-run health report: fault/degradation events seen by the
     * monitor plus per-switch fault-drop counters. Reports a healthy
     * cluster when no monitor was ever attached.
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

    // ---- Checkpoint / restore (manager/checkpoint.cc) ----------------

    /**
     * Topology/timing hash this cluster's snapshots are keyed by.
     * Deliberately independent of the shard count and owner map, so a
     * snapshot restores under any shard plan of the same target
     * (re-sharding). The transport's Hello exchanges the stricter
     * plan().planHash instead.
     */
    uint64_t topoHash() const;

    /**
     * Write a versioned snapshot of the whole cluster to @p path
     * (sharded runs write `<path>.rank<N>`; see snapshotRankPath).
     * Must be called at a round barrier, i.e. between run() calls.
     * Atomic: tmp + fsync + rename. Returns "" on success, else a
     * diagnostic.
     */
    std::string saveSnapshot(const std::string &path);

    /**
     * Check this cluster against a snapshot written by an identically
     * configured cluster. The caller must first replay this cluster to
     * the snapshot's cycle (coroutine frames and event closures are
     * rebuilt by deterministic replay; see README "Checkpoint &
     * recovery"). Every section is then byte-compared with the live
     * component's snapshotSave and nothing is written back, so any
     * divergence from the saved run is reported (section name and
     * first differing byte), never silently continued from. Returns ""
     * on success.
     */
    std::string loadSnapshot(const std::string &path);

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
     * The one build path, behind all three constructors. Computes the
     * ShardPlan (the trivial 1-shard plan in single-process mode) and
     * instantiates only the components this rank owns — with *global*
     * names, MACs, and IPs — wiring links between local components
     * through fabric channels and cross-shard links through the
     * transport. Single-process runs build no transport.
     */
    void
    build(std::vector<std::pair<uint32_t, SocketFd>> peer_fds,
          std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>>
              peer_links);

    /** The shard plan config().shard asks for: explicit owners, then
     *  the placement policy; the trivial plan when not sharded. */
    ShardPlan resolvePlan() const;

    /**
     * Sharded builds only: connect the transport (caller's links, then
     * caller's fds, else TCP rendezvous), bind the cross-shard links,
     * and eagerly attach the health monitor so peer loss mid-run can
     * be recorded.
     */
    void connectShards(
        const std::vector<CrossBinding> &cross,
        std::vector<std::pair<uint32_t, SocketFd>> peer_fds,
        std::vector<std::pair<uint32_t, std::unique_ptr<PeerLink>>>
            peer_links);

    /** Build the telemetry bundle, register every component's stats,
     *  and attach the configured fabric observers. */
    void setupTelemetry();

    /** Build the observability plane — flight recorder, heartbeat
     *  monitor, cross-shard aggregation hooks — per ClusterConfig.
     *  Called by build(), after setupTelemetry(). */
    void setupObservability();

    /** Mirror HealthMonitor events into the flight recorder (called
     *  whenever either side comes into existence). */
    void wireHealthObservability();

    /** This rank's point-in-time telemetry, as shipped to rank 0. */
    RankTelemetry localRankTelemetry(uint64_t round, Cycles cycle);

    /** Rank 0, dumpDir set: write the merged cross-shard dumps. */
    void writeMergedDumps();

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
    // directed link id carried by fabric channel c — the key re-shard
    // restore uses to re-home per-channel state across ranks.
    std::vector<uint32_t> switchGlobal;
    std::vector<uint32_t> nodeGlobal;
    std::vector<uint32_t> channelGlobalLink;
    TokenFabric fabric_;
    std::unique_ptr<HealthMonitor> monitor_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<ShardTransport> transport_;
    std::vector<std::unique_ptr<NodeSystem>> nodes;
    std::vector<std::unique_ptr<Switch>> switches;
    // Observability plane. Order matters for destruction: the monitor
    // holds a flight-recorder pointer, so the recorder is declared
    // (and destroyed) after it... i.e. recorder first here.
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<ClusterMonitor> clusterMonitor_;
    std::unique_ptr<StatAggregator> aggregator_;
    // Declared last: the registry's probes read the components above,
    // so the telemetry bundle must be destroyed first.
    std::unique_ptr<Telemetry> telemetry_;
};

} // namespace firesim

#endif // FIRESIM_MANAGER_CLUSTER_HH
