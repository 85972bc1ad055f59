#include "manager/cluster.hh"

#include <algorithm>

#include "base/table.hh"
#include "snapshot/serial.hh"

namespace firesim
{

namespace
{

/** Per-global-index spec lookup, numbered exactly like ShardPlan. */
struct SpecIndex
{
    std::vector<const SwitchSpec *> switches;
    std::vector<const ServerSpec *> servers;

    void
    walk(const SwitchSpec &spec)
    {
        switches.push_back(&spec);
        for (const auto &child : spec.childSwitches())
            walk(*child);
        for (const ServerSpec &server : spec.childServers())
            servers.push_back(&server);
    }
};

} // namespace

NodeSystem::NodeSystem(BladeConfig blade_cfg, OsConfig os_cfg,
                       NetConfig net_cfg, Ip ip, const ArpTable &arp)
    : blade_(std::move(blade_cfg)),
      os_(os_cfg, blade_.eventQueue()),
      net_(os_, blade_.nic(), blade_.memory(), net_cfg, arp)
{
    net_.setIp(ip);
}

MacAddr
Cluster::macFor(size_t i)
{
    // Locally administered unicast OUI 02:00:00, then the server index.
    return MacAddr(0x020000000000ULL | (static_cast<uint64_t>(i) + 1));
}

Ip
Cluster::ipFor(size_t i)
{
    // 10.x.y.z with z starting at .1 (the manager's address plan).
    return (10u << 24) | (static_cast<Ip>(i) + 1);
}

Cluster::Cluster(SwitchSpec root, ClusterConfig config)
    : Cluster(std::move(root), std::move(config),
              std::vector<std::pair<uint32_t, SocketFd>>())
{}

Cluster::Cluster(SwitchSpec root, ClusterConfig config,
                 std::vector<std::pair<uint32_t, SocketFd>> peer_fds)
    : topo(std::move(root)), cfg(std::move(config))
{
    build(std::move(peer_fds));
}

ShardPlan
Cluster::resolvePlan() const
{
    // Everything here is a pure function of the shared config, so every
    // rank independently computes the same plan; planHash double-checks
    // that at rendezvous. A single-process run is the trivial 1-shard
    // plan, which still carries the global numbering the state image
    // names components by. An explicit owner map replaces the block
    // placement.
    const ShardSpec &ss = cfg.shard;
    if (ss.shards > 1 && !ss.owners.empty())
        return ShardPlan::build(topo, ss.shards, cfg.linkLatency,
                                cfg.switchLatency, cfg.functionalWindow,
                                ss.owners);
    return ShardPlan::build(topo, std::max<uint32_t>(ss.shards, 1),
                            cfg.linkLatency, cfg.switchLatency,
                            cfg.functionalWindow);
}

void
Cluster::build(std::vector<std::pair<uint32_t, SocketFd>> peer_fds)
{
    if (topo.downlinkCount() == 0)
        fatal("cluster topology has an empty root switch");
    if (cfg.functionalWindow)
        fabric_.setFunctionalMode(cfg.functionalWindow);

    const ShardSpec &ss = cfg.shard;
    // Single process = rank 0 of the trivial plan, with no transport.
    const bool sharded = ss.shards > 1;
    const uint32_t rank = sharded ? ss.rank : 0;
    if (!sharded && !peer_fds.empty())
        fatal("shard peers passed to a single-process cluster");
    if (sharded && ss.rank >= ss.shards)
        fatal("shard rank %u >= shard count %u", ss.rank, ss.shards);

    plan_ = resolvePlan();
    const ShardPlan &plan = plan_;
    SpecIndex specs;
    specs.walk(topo);

    // Instantiate only what this rank owns, under *global* names, MACs
    // and IPs, so every component is indistinguishable from its
    // single-process twin (the basis of the byte-identity tests).
    std::vector<int> switchLocal(plan.nSwitches, -1);
    std::vector<int> nodeLocal(plan.nServers, -1);
    // One ARP table for the whole cluster (static addressing, like the
    // static MAC tables: datacenter topologies are relatively fixed).
    // Every local node resolves through it; a node's own IP is excluded
    // at lookup time.
    for (uint32_t j = 0; j < plan.nServers; ++j)
        arp_.put(ipFor(j), macFor(j));
    for (uint32_t s = 0; s < plan.nSwitches; ++s) {
        if (plan.switchOwner[s] != rank)
            continue;
        SwitchConfig scfg;
        scfg.name = csprintf("switch%u", s);
        scfg.ports = plan.switchPorts[s];
        scfg.minLatency = cfg.switchLatency;
        scfg.dropBound = cfg.switchDropBound;
        switchLocal[s] = static_cast<int>(switches.size());
        switchGlobal.push_back(s);
        switches.push_back(std::make_unique<Switch>(scfg));
        fabric_.addEndpoint(switches.back().get());
    }
    for (uint32_t j = 0; j < plan.nServers; ++j) {
        if (plan.serverOwner[j] != rank)
            continue;
        const ServerSpec &server = *specs.servers[j];
        BladeConfig bc;
        bc.name = csprintf("node%u", j);
        bc.freqGhz = cfg.freqGhz;
        bc.cores = server.cores;
        bc.memBytes = server.memBytes;
        bc.nic = cfg.nic;
        bc.mac = macFor(j);
        bc.harts = std::min(cfg.harts, server.cores);
        bc.hart = cfg.hart;
        OsConfig oc = cfg.os;
        oc.cores = server.cores;
        oc.seed = cfg.seed + j;
        nodeLocal[j] = static_cast<int>(nodes.size());
        nodeGlobal.push_back(j);
        nodes.push_back(
            std::make_unique<NodeSystem>(bc, oc, cfg.net, ipFor(j), arp_));
        fabric_.addEndpoint(&nodes.back()->blade());
    }
    if (switches.empty() && nodes.empty())
        fatal("shard %u owns no components", rank);

    // Populate every local switch's static MAC table: for every server
    // MAC in the *whole* cluster, the port that leads toward it (a
    // downlink when the server is in that downlink's subtree, else the
    // uplink), so a sharded switch forwards exactly like its
    // single-process twin.
    for (uint32_t s = 0; s < plan.nSwitches; ++s) {
        if (switchLocal[s] < 0)
            continue;
        Switch &sw = *switches[switchLocal[s]];
        uint32_t downlinks =
            static_cast<uint32_t>(plan.portServers[s].size());
        bool has_uplink = (s != 0);
        std::vector<int> port_of(plan.nServers, -1);
        for (uint32_t p = 0; p < downlinks; ++p)
            for (uint32_t server : plan.portServers[s][p])
                port_of[server] = static_cast<int>(p);
        for (uint32_t j = 0; j < plan.nServers; ++j) {
            if (port_of[j] >= 0)
                sw.addMacEntry(macFor(j),
                               static_cast<uint32_t>(port_of[j]));
            else if (has_uplink)
                sw.addMacEntry(macFor(j), downlinks);
            else
                panic("server %u unreachable from the root switch", j);
        }
    }

    // Wire the links: both ends local -> an ordinary channel pair; one
    // end local -> a remote half-link, with the global link ids both
    // shards derive from the same plan.
    std::vector<CrossBinding> cross;
    // Channel -> global-link-id map, mirroring finalize()'s channel
    // creation order: the local channel pairs (connect-call order,
    // down then up) come first, then every remote RX channel
    // (connectRemote-call order).
    std::vector<uint32_t> remoteRxIds;
    for (size_t k = 0; k < plan.links.size(); ++k) {
        const ShardPlan::Link &l = plan.links[k];
        uint32_t parent_owner = plan.switchOwner[l.parentSwitch];
        uint32_t child_owner = plan.ownerOfLink(l, true);
        bool own_parent = parent_owner == rank;
        bool own_child = child_owner == rank;
        if (!own_parent && !own_child)
            continue;
        TokenEndpoint *parent_ep =
            own_parent ? switches[switchLocal[l.parentSwitch]].get()
                       : nullptr;
        TokenEndpoint *child_ep = nullptr;
        if (own_child) {
            child_ep = l.childIsSwitch
                           ? static_cast<TokenEndpoint *>(
                                 switches[switchLocal[l.child]].get())
                           : &nodes[nodeLocal[l.child]]->blade();
        }
        if (own_parent && own_child) {
            fabric_.connect(parent_ep, l.parentPort, child_ep,
                            l.childPort, cfg.linkLatency);
            channelGlobalLink.push_back(ShardPlan::downLinkId(k));
            channelGlobalLink.push_back(ShardPlan::upLinkId(k));
            continue;
        }
        if (own_parent) {
            std::string child_label =
                l.childIsSwitch ? csprintf("switch%u", l.child)
                                : csprintf("node%u", l.child);
            fabric_.connectRemote(parent_ep, l.parentPort,
                                  cfg.linkLatency, ShardPlan::upLinkId(k),
                                  ShardPlan::downLinkId(k), child_label);
            remoteRxIds.push_back(ShardPlan::upLinkId(k));
            cross.push_back({ShardPlan::upLinkId(k), child_owner, true});
            cross.push_back(
                {ShardPlan::downLinkId(k), child_owner, false});
        } else {
            fabric_.connectRemote(child_ep, l.childPort, cfg.linkLatency,
                                  ShardPlan::downLinkId(k),
                                  ShardPlan::upLinkId(k),
                                  csprintf("switch%u", l.parentSwitch));
            remoteRxIds.push_back(ShardPlan::downLinkId(k));
            cross.push_back(
                {ShardPlan::downLinkId(k), parent_owner, true});
            cross.push_back({ShardPlan::upLinkId(k), parent_owner, false});
        }
    }
    channelGlobalLink.insert(channelGlobalLink.end(), remoteRxIds.begin(),
                             remoteRxIds.end());
    if (sharded && cross.empty())
        warn("shard %u has no cross-shard links; peers barrier every "
             "round but exchange no tokens",
             rank);

    fabric_.finalize();
    FS_ASSERT(channelGlobalLink.size() == fabric_.channelCount(),
              "channel/global-link map mismatch: %zu links mapped, %zu "
              "channels built",
              channelGlobalLink.size(), fabric_.channelCount());
    fabric_.setParallelHosts(cfg.parallelHosts);

    if (sharded)
        connectShards(cross, std::move(peer_fds));

    if (cfg.telemetry.enabled)
        setupTelemetry();
    setupObservability();

    for (auto &node : nodes)
        node->start();
}

void
Cluster::connectShards(const std::vector<CrossBinding> &cross,
                       std::vector<std::pair<uint32_t, SocketFd>> peer_fds)
{
    const ShardSpec &ss = cfg.shard;
    ShardTransport::Options topts;
    topts.rank = ss.rank;
    topts.shards = ss.shards;
    topts.host = ss.connectHost;
    topts.basePort = ss.basePort;
    topts.recvTimeoutMs = ss.recvTimeoutMs;
    topts.connectTimeoutMs = ss.connectTimeoutMs;
    topts.failFast = ss.failFast;
    topts.transport = ss.transport;
    topts.shmRingBytes = ss.shmRingBytes;
    if (!peer_fds.empty()) {
        transport_ = ShardTransport::fromFds(topts, std::move(peer_fds),
                                             plan_.planHash);
    } else {
        transport_ = ShardTransport::rendezvousTcp(topts, plan_.planHash);
    }
    for (size_t i = 0; i < transport_->peerRanks().size(); ++i) {
        inform("shard %u: peer rank %u via %s", ss.rank,
               transport_->peerRanks()[i],
               transport_->peerLinkAt(i)->describe().c_str());
    }
    for (const CrossBinding &b : cross) {
        if (b.rx) {
            transport_->bindRxChannel(b.linkId, b.peer,
                                      fabric_.remoteRxChannel(b.linkId));
        } else {
            transport_->bindTxLink(b.linkId, b.peer);
        }
    }
    fabric_.setRemoteHook(transport_.get());
    transport_->onPeerLoss(
        [this](uint32_t peer, uint64_t round, Cycles cycle) {
            FaultEvent ev;
            ev.kind = FaultEvent::Kind::PeerShardLost;
            ev.round = round;
            ev.cycle = cycle;
            ev.detail = csprintf(
                "peer shard %u lost; its cross-shard links degraded to "
                "empty tokens",
                peer);
            health().record(std::move(ev));
        });
}

Cluster::~Cluster()
{
    // One last heartbeat so short runs (fewer rounds than the cadence)
    // still leave a record, and long ones end on current numbers.
    if (clusterMonitor_ && clusterMonitor_->config().heartbeatEvery != 0)
        clusterMonitor_->emitHeartbeat(fabric_.now(), fabric_.round());

    if (transport_)
        transport_->shutdown();
    if (telemetry_)
        telemetry_->dumpAtExit(fabric_.now());
}

void
Cluster::setupTelemetry()
{
    telemetry_ = std::make_unique<Telemetry>(
        cfg.telemetry, cfg.shard.shards, cfg.shard.rank);
    StatRegistry &reg = telemetry_->registry();

    for (auto &s : switches)
        s->registerStats(reg, "cluster." + s->name());

    for (auto &node : nodes) {
        std::string prefix = "cluster." + node->name();
        node->blade().registerStats(reg, prefix);

        const NetStackStats &ns = node->net().stats();
        reg.registerCounter(prefix + ".net.framesTx", ns.framesTx);
        reg.registerCounter(prefix + ".net.framesRx", ns.framesRx);
        reg.registerCounter(prefix + ".net.icmpEchoed", ns.icmpEchoed);
        reg.registerCounter(prefix + ".net.udpDelivered", ns.udpDelivered);
        reg.registerCounter(prefix + ".net.udpNoPort", ns.udpNoPort);
        reg.registerCounter(prefix + ".net.socketOverflowDrops",
                            ns.socketOverflowDrops);

        const SimOS *os = &node->os();
        reg.registerProbe(prefix + ".os.busyCycles", [os] {
            return static_cast<double>(os->busyCycles());
        });
    }

    const TokenFabric *fab = &fabric_;
    reg.registerProbe("cluster.fabric.rounds",
                      [fab] { return static_cast<double>(fab->round()); });
    reg.registerProbe("cluster.fabric.batchesMoved", [fab] {
        return static_cast<double>(fab->batchesMoved());
    });
    // Host-side (the `.host.` infix keeps them out of parity dumps): a
    // run with an observer attached jumps no round, and one that
    // watches endpoints steps every endpoint every round.
    reg.registerProbe("cluster.fabric.host.roundsFastForwarded", [fab] {
        return static_cast<double>(fab->roundsFastForwarded());
    });
    reg.registerProbe("cluster.fabric.host.endpointRoundsStepped", [fab] {
        return static_cast<double>(fab->endpointRoundsStepped());
    });

    if (transport_) {
        // Per-peer transport accounting. Byte and batch counts are a
        // pure function of the token streams, so they stay
        // byte-identical run to run; the wall-clock stallNs is not
        // exported.
        const ShardTransport *tr = transport_.get();
        reg.registerProbe("cluster.shard.livePeers", [tr] {
            return static_cast<double>(tr->livePeers());
        });
        for (size_t i = 0; i < tr->peerRanks().size(); ++i) {
            std::string pp =
                csprintf("cluster.shard.peer%u", tr->peerRanks()[i]);
            reg.registerProbe(pp + ".bytesTx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).bytesTx);
            });
            reg.registerProbe(pp + ".bytesRx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).bytesRx);
            });
            reg.registerProbe(pp + ".batchesTx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).batchesTx);
            });
            reg.registerProbe(pp + ".batchesRx", [tr, i] {
                return static_cast<double>(tr->peerStatsAt(i).batchesRx);
            });
            reg.registerProbe(pp + ".roundsBarriered", [tr, i] {
                return static_cast<double>(
                    tr->peerStatsAt(i).roundsBarriered);
            });
            // Bridge-layer accounting. Everything under cluster.shard.
            // is host-side and stripped by the parity differ, so the
            // fabric choice can never leak into the deterministic
            // simulation surface.
            reg.registerProbe(pp + ".transport.kind", [tr, i] {
                return static_cast<double>(
                    static_cast<uint8_t>(tr->peerLinkAt(i)->kind()));
            });
            // Ring counters are registered for every fabric (zero on
            // links without rings): the AutoCounter sampler pins its
            // column set at the first sample and the parity tests
            // compare that set byte for byte, so the registry shape
            // must not vary with the transport choice — only values
            // may.
            auto shmStat = [tr, i](auto field) {
                const ShmLinkStats *s = tr->peerLinkAt(i)->shmStats();
                return s ? static_cast<double>(s->*field) : 0.0;
            };
            reg.registerProbe(pp + ".transport.ringBytes", [shmStat] {
                return shmStat(&ShmLinkStats::ringBytes);
            });
            reg.registerProbe(
                pp + ".transport.bytesViaRing", [shmStat] {
                    return shmStat(&ShmLinkStats::bytesViaRing);
                });
            reg.registerProbe(
                pp + ".transport.txRingFullWaits", [shmStat] {
                    return shmStat(&ShmLinkStats::txRingFullWaits);
                });
        }
    }

    telemetry_->attach(fabric_);
}

void
Cluster::setupObservability()
{
    const ShardSpec &ss = cfg.shard;
    bool sharded = ss.shards > 1;

    if (cfg.monitor.enabled()) {
        MonitorConfig mc = cfg.monitor;
        mc.targetFreqGhz = cfg.freqGhz;
        if (mc.heartbeatPath.empty())
            mc.heartbeatPath = "heartbeat.jsonl";
        const std::string &dump_dir = cfg.telemetry.dumpDir;
        if (!dump_dir.empty() && mc.heartbeatPath.front() != '/')
            mc.heartbeatPath = dump_dir +
                (dump_dir.back() == '/' ? "" : "/") + mc.heartbeatPath;
        if (sharded) {
            mc.heartbeatPath =
                rankPath(mc.heartbeatPath, ss.shards, ss.rank);
            if (!mc.metricsPath.empty())
                mc.metricsPath =
                    rankPath(mc.metricsPath, ss.shards, ss.rank);
        }
        clusterMonitor_ = std::make_unique<ClusterMonitor>(
            mc, ss.rank, sharded ? ss.shards : 1);
        clusterMonitor_->setTransport(transport_.get());
        clusterMonitor_->setHealthEventsProvider([this]() -> uint64_t {
            return monitor_ ? monitor_->totalEvents() : 0;
        });
        clusterMonitor_->setStragglerSink(
            [this](uint32_t rank, uint64_t latency_ns,
                   uint64_t median_ns, uint64_t round, Cycles cycle) {
                std::string what = csprintf(
                    "rank %u round latency %llu ns exceeds %gx the "
                    "cluster median %llu ns",
                    rank, (unsigned long long)latency_ns,
                    clusterMonitor_->config().stragglerFactor,
                    (unsigned long long)median_ns);
                FaultEvent ev;
                ev.kind = FaultEvent::Kind::StragglerDetected;
                ev.round = round;
                ev.cycle = cycle;
                ev.detail = what;
                health().record(std::move(ev));
            });
        fabric_.addObserver(clusterMonitor_.get());
    }

    if (transport_) {
        if (clusterMonitor_) {
            ClusterMonitor *cm = clusterMonitor_.get();
            transport_->setRoundLatencyProvider(
                [cm] { return cm->roundLatencyNs(); });
        }
        // Flush telemetry before the transport's fail-fast fatal()
        // so an abort on peer loss never leaves empty dumps behind.
        transport_->setFatalFlushHook([this] {
            if (telemetry_)
                telemetry_->dumpAtExit(fabric_.now());
        });
    }
}

void
Cluster::run(Cycles cycles)
{
    const AutoCounterSampler *ac =
        telemetry_ ? telemetry_->sampler() : nullptr;
    if (!ac)
        return fabric_.run(cycles);
    Cycles q = fabric_.quantum();
    Cycles end = fabric_.now() + (cycles + q - 1) / q * q;
    while (fabric_.now() < end) {
        Cycles at = std::max(ac->nextSampleAt(), fabric_.now() + 1);
        fabric_.run(std::min(end, (at + q - 1) / q * q) - fabric_.now());
    }
}

HealthMonitor &
Cluster::health()
{
    if (!monitor_)
        monitor_ = std::make_unique<HealthMonitor>();
    return *monitor_;
}

HealthMonitor &
Cluster::health(const HealthConfig &config)
{
    if (monitor_)
        fatal("health monitor already attached; its config is fixed");
    monitor_ = std::make_unique<HealthMonitor>(config);
    return *monitor_;
}

void
Cluster::injectFaults(const FaultPlan &plan)
{
    if (injector_)
        fatal("cluster already has a fault plan injected");
    if (fabric_.now() != 0)
        warn("fault plan injected mid-run at cycle %llu",
             (unsigned long long)fabric_.now());
    HealthMonitor &mon = health();
    injector_ = std::make_unique<FaultInjector>(fabric_, plan, &mon);
}

std::string
Cluster::healthReport() const
{
    if (!monitor_)
        return "Fabric health report\n  no monitor attached; run was "
               "unobserved (and did not abort)\n";
    std::string out = monitor_->report();
    if (injector_)
        out += injector_->report();

    Table sw({"Switch", "Port transitions", "Flits dropped (in)",
              "Pkts dropped (out)"});
    bool any = false;
    for (const auto &s : switches) {
        const SwitchStats &st = s->stats();
        if (st.portTransitions.value() == 0 &&
            st.faultFlitsDroppedIn.value() == 0 &&
            st.faultPacketsDroppedOut.value() == 0)
            continue;
        any = true;
        sw.addRow({s->name(), Table::fmt(st.portTransitions.value(), 0),
                   Table::fmt(st.faultFlitsDroppedIn.value(), 0),
                   Table::fmt(st.faultPacketsDroppedOut.value(), 0)});
    }
    if (any)
        out += sw.render();

    if (transport_ && transport_->anyPeerLost()) {
        Table peers({"Peer", "State"});
        for (size_t i = 0; i < transport_->peerRanks().size(); ++i)
            if (!transport_->peerStatsAt(i).alive)
                peers.addRow({csprintf("shard %u",
                                       transport_->peerRanks()[i]),
                              "LOST"});
        out += peers.render();
    }
    return out;
}

StateImage
Cluster::stateImage() const
{
    StateImage image;
    auto add = [&image](std::string name, const auto &component) {
        Serializer s;
        component.snapshotSave(s);
        image.emplace_back(std::move(name), s.takeBytes());
    };
    // The fabric's own save asserts the round barrier.
    add("fabric", fabric_);
    for (size_t c = 0; c < fabric_.channelCount(); ++c)
        add(csprintf("chan%u", channelGlobalLink[c]), fabric_.channelAt(c));
    for (size_t i = 0; i < switches.size(); ++i)
        add(csprintf("switch%u", switchGlobal[i]), *switches[i]);
    for (size_t i = 0; i < nodes.size(); ++i) {
        add(csprintf("blade%u", nodeGlobal[i]), nodes[i]->blade());
        add(csprintf("os%u", nodeGlobal[i]), nodes[i]->os());
        add(csprintf("net%u", nodeGlobal[i]), nodes[i]->net());
    }
    if (injector_)
        add("fault", *injector_);
    if (monitor_)
        add("health", *monitor_);
    if (telemetry_) {
        if (telemetry_->sampler())
            add("autocounter", *telemetry_->sampler());
        // The cluster.shard.* transport subtree and the .host. counters
        // depend on the host, not the simulation.
        image.emplace_back("stats",
                           stripHostTimingStats(
                               telemetry_->registry().dumpJson(now())));
    }
    return image;
}

std::string
Cluster::statsReport()
{
    std::string out;
    Table sw({"Switch", "Ports", "Pkts in", "Pkts out", "Dropped",
              "Bytes out"});
    for (auto &s : switches) {
        const SwitchStats &st = s->stats();
        sw.addRow({s->name(), Table::fmt(s->config().ports, 0),
                   Table::fmt(st.packetsIn.value(), 0),
                   Table::fmt(st.packetsOut.value(), 0),
                   Table::fmt(st.packetsDropped.value(), 0),
                   Table::fmt(st.bytesOut.value(), 0)});
    }
    out += sw.render();
    out += "\n";

    Table nd({"Node", "IP", "Frames tx", "Frames rx", "RX drops",
              "CPU busy %"});
    double window = static_cast<double>(std::max<Cycles>(1, now()));
    for (auto &node : nodes) {
        const NicStats &nic = node->blade().nic().stats();
        double busy =
            100.0 * static_cast<double>(node->os().busyCycles()) /
            (window * node->os().config().cores);
        nd.addRow({node->name(), ipStr(node->ip()),
                   Table::fmt(nic.framesSent.value(), 0),
                   Table::fmt(nic.framesReceived.value(), 0),
                   Table::fmt(nic.framesDroppedRx.value(), 0),
                   Table::fmt(busy, 1)});
    }
    out += nd.render();
    return out;
}

} // namespace firesim
