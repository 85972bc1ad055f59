/**
 * @file
 * Seeded deterministic fault injector for the token fabric.
 *
 * The FaultInjector interprets a FaultPlan against a finalized
 * TokenFabric: it resolves the plan's symbolic endpoint names to
 * endpoints and channels, then applies every scheduled fault from
 * inside the fabric's round loop via the FabricObserver hooks.
 *
 * Determinism: every stochastic decision (which flit to drop, which
 * bit to flip) is drawn from a per-fault xoshiro stream seeded from
 * plan.seed, so the same topology + plan + seed reproduces the exact
 * same fault pattern — the deterministic-replay property the paper's
 * reproducible-experiment workflow depends on.
 *
 * Fault mechanics:
 *  - DropPayload / CorruptFlit mutate flits of outbound batches whose
 *    transmit cycle falls in the fault window, at per-flit precision.
 *  - ExtraLatency delays payload through a per-channel carry buffer:
 *    tokens still flow one per cycle (the fabric contract is
 *    preserved), but the payload they carry arrives `extraCycles`
 *    later; flits that slide past a batch boundary are re-emitted in
 *    later batches, preserving order and at most one flit per cycle.
 *  - PortDown calls Switch::setPortDown at the round containing the
 *    scheduled cycle (fault timing is quantized to the fabric round,
 *    like every host-side action in FireSim).
 *  - Crash parks the endpoint: the fabric discards its inputs and
 *    emits empty token batches on its behalf until the restart cycle.
 */

#ifndef FIRESIM_FAULT_INJECTOR_HH
#define FIRESIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "fault/fault_plan.hh"
#include "fault/health_monitor.hh"
#include "net/fabric.hh"

namespace firesim
{

class FaultInjector : public FabricObserver
{
  public:
    /**
     * Resolve @p plan against @p fabric (which must be finalized) and
     * attach. Unknown endpoint names or ports are fatal user errors.
     * @p monitor, when given, receives a FaultEvent for every applied
     * fault; without it the injector only keeps counters.
     */
    FaultInjector(TokenFabric &fabric, FaultPlan plan,
                  HealthMonitor *monitor = nullptr);

    const FaultPlan &plan() const { return plan_; }

    /**
     * Serialize injection progress: per-link RNG streams and delay
     * carry buffers, port/crash applied flags, round cursor and the
     * drop/corrupt/delay totals. Restore compares this with the
     * replayed injector, so a resumed run's faults land on the same
     * flits they would have in an unbroken run.
     */
    void snapshotSave(Serializer &s) const;

    uint64_t flitsDropped() const { return dropped; }
    uint64_t flitsCorrupted() const { return corrupted; }
    uint64_t flitsDelayed() const { return delayed; }

    // ---- FabricObserver ---------------------------------------------
    void onRoundStart(Cycles round_start, uint64_t round) override;
    bool endpointDown(size_t endpoint_idx, Cycles round_start) override;
    void onTransmit(size_t channel_idx, TokenBatch &batch) override;

  private:
    struct LinkState
    {
        LinkFaultSpec spec;
        size_t channel = 0;
        Random rng;
        // ExtraLatency: payload displaced past its batch boundary,
        // as (absolute target cycle, flit), kept sorted.
        std::deque<std::pair<Cycles, Flit>> carry;
        Cycles lastCycle = 0; //!< last assigned delivery cycle
        bool haveLast = false;
    };

    struct PortState
    {
        PortDownSpec spec;
        size_t endpoint = 0;
        bool downApplied = false;
        bool upApplied = false;
    };

    struct CrashState
    {
        CrashSpec spec;
        size_t endpoint = 0;
        bool crashLogged = false;
        bool restartLogged = false;
    };

    /** True when @p spec is active for a flit transmitted at @p cycle. */
    static bool
    activeAt(const LinkFaultSpec &spec, Cycles cycle)
    {
        return cycle >= spec.from &&
               (spec.until == 0 || cycle < spec.until);
    }

    /** True when the crash covers the round starting at @p start. */
    bool crashActive(const CrashState &crash, Cycles round_start) const;

    void applyDrop(LinkState &link, TokenBatch &batch);
    void applyCorrupt(LinkState &link, TokenBatch &batch);
    void applyDelay(LinkState &link, TokenBatch &batch);

    void recordEvent(FaultEvent::Kind kind, Cycles cycle,
                     const std::string &endpoint, int port,
                     const std::string &channel, std::string detail);

    TokenFabric &fab;
    FaultPlan plan_;
    HealthMonitor *mon;
    std::vector<LinkState> links;
    std::vector<PortState> ports;
    std::vector<CrashState> crashes;
    uint64_t curRound = 0;
    uint64_t dropped = 0;
    uint64_t corrupted = 0;
    uint64_t delayed = 0;
};

} // namespace firesim

#endif // FIRESIM_FAULT_INJECTOR_HH
