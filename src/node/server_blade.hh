/**
 * @file
 * The simulated server blade (paper Section III-A, Table I).
 *
 * A blade composes the per-node hardware: DRAM (functional store +
 * timing models), the NIC, the block device, and — for cycle-exact
 * single-node microarchitectural work — RISC-V Rocket-like cores
 * (src/riscv). In FireSim the blade is FAME-1-transformed RTL on an
 * FPGA; here it is an event-driven model that honours the identical
 * token-decoupled I/O contract: each advance() consumes one input token
 * per target cycle and produces one output token per target cycle, so
 * the blade cannot observe or influence anything outside the cycles its
 * tokens account for.
 *
 * The software stack (simulated OS, applications) attaches on top via
 * src/os; the blade itself is hardware only.
 */

#ifndef FIRESIM_NODE_SERVER_BLADE_HH
#define FIRESIM_NODE_SERVER_BLADE_HH

#include <memory>
#include <string>

#include <vector>

#include "base/units.hh"
#include "blockdev/blockdev.hh"
#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "net/fabric.hh"
#include "nic/nic.hh"
#include "riscv/core.hh"
#include "sim/event_queue.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;

/** Table I server blade configuration. */
struct BladeConfig
{
    std::string name = "node";
    /** Target clock; all timing (including the network) is derived
     *  from it (paper: 3.2 GHz). */
    double freqGhz = 3.2;
    /** Core count: 1 to 4 RISC-V Rocket cores in the paper. */
    uint32_t cores = 4;
    /** DRAM capacity (paper: 16 GiB DDR3). */
    uint64_t memBytes = 16 * GiB;
    /** NIC parameters (paper: 200 Gbit/s Ethernet). */
    NicConfig nic;
    /** Block device parameters (paper: software model). */
    BlockDevConfig blockdev;
    /** MAC address, assigned by the simulation manager. */
    MacAddr mac;
    /**
     * Number of cycle-exact RocketCore harts to instantiate (0 to
     * `cores`; 0 = the OS/application model drives the blade, the
     * default). Each hart gets its own MmioBus wired to the shared
     * NIC/block device and is stepped in batch to the token-window
     * boundary by advance(). A hart boots parked (halted) until
     * software arms it via hart(i).reset().
     */
    uint32_t harts = 0;
    /** Core template applied to every instantiated hart (hartId is
     *  overridden per hart). Carries the decode-cache knobs. */
    CoreConfig hart;
};

/**
 * The hardware of one simulated server node, pluggable into the token
 * fabric as a single-port endpoint.
 */
class ServerBlade : public TokenEndpoint
{
  public:
    explicit ServerBlade(BladeConfig config);

    // TokenEndpoint interface (the FAME-1 decoupled top-level I/O).
    uint32_t numPorts() const override { return 1; }
    std::string name() const override { return cfg.name; }
    void advance(Cycles window_start, Cycles window,
                 const std::vector<const TokenBatch *> &in,
                 const std::vector<TokenBatch *> &out) override;

    const BladeConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eq; }

    /**
     * Register this blade's device counters under @p prefix:
     * <prefix>.nic.* and <prefix>.blockdev.*.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    FunctionalMemory &memory() { return mem; }
    Nic &nic() { return *nicDev; }
    BlockDevice &blockDevice() { return *blkDev; }
    TargetClock clock() const { return TargetClock(cfg.freqGhz); }

    /** Instantiated RocketCore harts (see BladeConfig::harts). */
    uint32_t hartCount() const
    {
        return static_cast<uint32_t>(harts_.size());
    }
    RocketCore &hart(uint32_t i) { return *harts_.at(i); }
    const RocketCore &hart(uint32_t i) const { return *harts_.at(i); }
    /** The shared cache hierarchy; only valid when hartCount() > 0. */
    MemHierarchy &hierarchy() { return *hier_; }

    /**
     * Serialize the blade: DRAM, NIC, block device, plus the event
     * queue's clock and schedule digest. Pending events are closures
     * and cannot be serialized; restore compares the whole section
     * with the live (replay-rebuilt) blade, so any divergence in the
     * schedule is caught rather than silently continued from.
     */
    void snapshotSave(Serializer &s) const;

  private:
    BladeConfig cfg;
    EventQueue eq;
    FunctionalMemory mem;
    std::unique_ptr<Nic> nicDev;
    std::unique_ptr<BlockDevice> blkDev;
    std::unique_ptr<MemHierarchy> hier_;
    std::vector<std::unique_ptr<MmioBus>> hartBuses;
    std::vector<std::unique_ptr<RocketCore>> harts_;
};

} // namespace firesim

#endif // FIRESIM_NODE_SERVER_BLADE_HH
