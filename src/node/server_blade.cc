#include "node/server_blade.hh"

#include <algorithm>

#include "riscv/nic_mmio.hh"
#include "snapshot/serial.hh"

namespace firesim
{

ServerBlade::ServerBlade(BladeConfig config)
    : cfg(std::move(config)), mem(cfg.memBytes)
{
    if (cfg.cores < 1 || cfg.cores > 4)
        fatal("blade '%s': %u cores (Table I allows 1 to 4)",
              cfg.name.c_str(), cfg.cores);
    cfg.nic.name = cfg.name + ".nic";
    cfg.blockdev.name = cfg.name + ".blkdev";
    nicDev = std::make_unique<Nic>(cfg.nic, eq, mem, cfg.mac);
    blkDev = std::make_unique<BlockDevice>(cfg.blockdev, eq, mem);

    if (cfg.harts > cfg.cores)
        fatal("blade '%s': %u harts exceed the %u cores",
              cfg.name.c_str(), cfg.harts, cfg.cores);
    if (cfg.harts > 0) {
        hier_ = std::make_unique<MemHierarchy>(cfg.cores);
        for (uint32_t h = 0; h < cfg.harts; ++h) {
            auto bus = std::make_unique<MmioBus>();
            CoreConfig hc = cfg.hart;
            hc.hartId = h;
            auto core =
                std::make_unique<RocketCore>(hc, mem, *hier_, bus.get());
            mapStandardDevices(*bus, *core);
            mapNicMmio(*bus, *nicDev);
            mapBlockDevMmio(*bus, *blkDev);
            // Device MMIO must observe a consistent time base: run the
            // blade's event queue up to the core's cycle first.
            bus->setSyncHook([this](Cycles now) {
                if (now > eq.now())
                    eq.runUntil(now);
            });
            // Parked until software arms it via hart(h).reset(pc).
            core->haltRequest(0);
            hartBuses.push_back(std::move(bus));
            harts_.push_back(std::move(core));
        }
    }
}

void
ServerBlade::advance(Cycles window_start, Cycles window,
                     const std::vector<const TokenBatch *> &in,
                     const std::vector<TokenBatch *> &out)
{
    FS_ASSERT(in.size() == 1 && out.size() == 1,
              "blade %s is a single-port endpoint", cfg.name.c_str());
    // In normal cluster operation the event queue is driven only by
    // advance(), so eq.now() == window_start exactly. In single-node
    // co-simulation (a RocketCore driving devices through MMIO between
    // fabric rounds) the queue may already have been run ahead; the
    // window is then replayed with bounded skew.
    Cycles window_end = window_start + window;

    // Receive per frame, as the NIC's packet buffer decides per frame.
    // Every arriving flit goes into the NIC's assembler now; a flit
    // that is not a frame's last has no effect but appending bytes,
    // which nothing reads before the frame completes (a state image is
    // taken at a round barrier, after the whole window was fed). Each
    // completed frame gets one event at its last flit's cycle, where
    // the NIC admits or drops it. All of them are scheduled here, after
    // every earlier event and before anything this window schedules,
    // so each runs at the same point of the (cycle, insertion) order
    // as it would if every flit were delivered by its own event.
    for (const Flit &flit : in[0]->flits) {
        Cycles at = std::max(in[0]->absCycle(flit), eq.now());
        if (nicDev->feedFlit(flit, at))
            eq.schedule(at, [this] { nicDev->admitFrame(); });
    }

    // Batched hart stepping: each armed hart executes to the token
    // window boundary in one runUntilCycle() call instead of being
    // single-stepped from outside, so the superblock fast path can
    // amortize dispatch across the whole window.
    for (auto &core : harts_)
        if (!core->halted() && core->cycle() < window_end)
            core->runUntilCycle(window_end);

    // Execute everything the blade does in this window: CPU/OS events,
    // DMA completions, device timers.
    if (eq.now() < window_end)
        eq.runUntil(window_end);

    // Emit this window's transmitted tokens.
    nicDev->drainTx(window_start, *out[0]);
}

Cycles
ServerBlade::quiescentUntil(Cycles now) const
{
    for (const auto &core : harts_)
        if (!core->halted())
            return now;
    return std::min(eq.nextEventCycle(), nicDev->nextTxCycle());
}

void
ServerBlade::registerStats(StatRegistry &registry,
                           const std::string &prefix) const
{
    nicDev->registerStats(registry, prefix + ".nic");

    const BlockDevStats &b = blkDev->stats();
    registry.registerCounter(prefix + ".blockdev.reads", b.reads);
    registry.registerCounter(prefix + ".blockdev.writes", b.writes);
    registry.registerCounter(prefix + ".blockdev.sectorsMoved",
                             b.sectorsMoved);
    registry.registerCounter(prefix + ".blockdev.interruptsRaised",
                             b.interruptsRaised);

    for (size_t h = 0; h < harts_.size(); ++h)
        harts_[h]->registerStats(
            registry, csprintf("%s.hart%zu", prefix.c_str(), h));
    if (hier_)
        hier_->registerStats(registry, prefix + ".mem");
}

void
ServerBlade::snapshotSave(Serializer &s) const
{
    s.putU(eq.now());
    s.putU(eq.scheduledTotal());
    s.putFixed64(eq.scheduleDigest());
    mem.snapshotSave(s);
    nicDev->snapshotSave(s);
    blkDev->snapshotSave(s);
    // Hart state only exists when configured, so the stream layout is
    // config-symmetric and harts=0 sections stay hart-free.
    if (!harts_.empty()) {
        hier_->snapshotSave(s);
        for (const auto &core : harts_)
            core->snapshotSave(s);
    }
}

} // namespace firesim
