/**
 * @file
 * Store-and-forward Ethernet switch model (paper Section III-B1).
 *
 * The switch processes network flits cycle-by-cycle with a parametrizable
 * number of ports. At ingress, tokens that carry valid data are buffered
 * into full packets, timestamped with the arrival cycle of their last
 * token plus a configurable minimum switching latency, and placed into
 * input packet queues. A global switching step sorts all input packets
 * on timestamp and drains them into output port buffers based on a
 * static MAC address table (duplicating packets for broadcast). Output ports release packets in token form when the
 * packet's release timestamp is <= the port's current cycle and there is
 * space in the output token buffer; because the output token buffer is
 * of fixed size each iteration (one token per cycle of the window),
 * congestion is modeled automatically. A packet whose release has been
 * delayed beyond a configurable bound is dropped, modeling finite
 * buffering.
 *
 * The paper parallelizes ingress with one OpenMP thread per port; this
 * reproduction performs the same phases serially (the phases are
 * data-parallel, so results are identical).
 */

#ifndef FIRESIM_SWITCH_SWITCH_HH
#define FIRESIM_SWITCH_SWITCH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/flat_map.hh"
#include "base/ring_queue.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "net/eth.hh"
#include "net/fabric.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;

/** Runtime-configurable switch parameters (no resynthesis needed). */
struct SwitchConfig
{
    std::string name = "switch";
    /** Number of link ports. */
    uint32_t ports = 4;
    /** Minimum port-to-port switching latency in cycles. */
    Cycles minLatency = 10;
    /**
     * Upper bound on the delay between a packet's release timestamp and
     * the cycle it would actually be emitted; packets delayed longer are
     * dropped (finite output buffering). Default ~64 KiB per port at
     * 8 B/cycle.
     */
    Cycles dropBound = 8192;
};

/** Counters exposed for experiments (e.g. Figure 6's root-switch BW). */
struct SwitchStats
{
    Counter packetsIn;
    Counter packetsOut;
    Counter packetsDropped;
    Counter bytesIn;
    Counter bytesOut;
    Counter broadcasts;
    /** Flits discarded at the ingress of an administratively-down port
     *  (fault injection, src/fault). */
    Counter faultFlitsDroppedIn;
    /** Queued packets discarded because their egress port went down. */
    Counter faultPacketsDroppedOut;
    /** Port up/down transitions applied to this switch. */
    Counter portTransitions;
};

/**
 * The switch model. Implements TokenEndpoint so it plugs into the token
 * fabric exactly like a server blade does.
 *
 * Extensibility (paper: "a user can easily plug in their own switching
 * algorithm or their own link-layer protocol parsing code in C++ to
 * model new switch designs"): subclasses override route() to change
 * the forwarding decision — return one egress port, or kMultiPort
 * after listing several, each of which gets a copy — and
 * insertInQueue() to change the output queueing discipline.
 * priority_switch.hh is a worked example.
 *
 * Frame bytes are recycled through one per-switch buffer pool: ingress
 * takes a buffer for each packet it completes, and egress gives it
 * back once the packet has left or been dropped.
 */
class Switch : public TokenEndpoint
{
  public:
    explicit Switch(SwitchConfig config);

    // TokenEndpoint interface
    uint32_t numPorts() const override { return cfg.ports; }
    std::string name() const override { return cfg.name; }
    void advance(Cycles window_start, Cycles window,
                 const std::vector<const TokenBatch *> &in,
                 const std::vector<TokenBatch *> &out) override;
    /** @p now while a packet is pending, queued or on the wire, else
     *  kNoCycle: an idle switch acts only on arriving flits. */
    Cycles quiescentUntil(Cycles now) const override;

    /** Install a static MAC table entry: frames for @p mac exit @p port. */
    void addMacEntry(MacAddr mac, uint32_t port);

    /** Look up the output port for @p mac (nullopt -> flood). */
    std::optional<uint32_t> lookupMac(MacAddr mac) const;

    /**
     * Take a port down (or bring it back up) — the fault-injection
     * entry point for modeling a dead cable / dead switch port. While
     * down, flits arriving at the port are discarded (any partial frame
     * is dropped), queued egress packets for the port are discarded,
     * and nothing is emitted onto the link, so the far endpoint simply
     * sees empty tokens and the cluster stays cycle-exact.
     */
    void setPortDown(uint32_t port, bool down);

    /** True when @p port is administratively up. */
    bool portUp(uint32_t port) const;

    const SwitchStats &stats() const { return stats_; }
    const SwitchConfig &config() const { return cfg; }

    /** Register every SwitchStats counter under @p prefix. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /**
     * Bytes forwarded out of all ports since the last call; used by the
     * bandwidth-over-time experiments (Figure 6).
     */
    uint64_t takeBytesOutDelta();

    /**
     * Serialize the full inter-round state: MAC table (in ascending
     * MAC order), port admin state, per-port partial frames, the
     * pending packets,
     * every output port (queue, active packet, link cursor), sequence
     * counter, and counters.
     */
    void snapshotSave(Serializer &s) const;

  protected:
    /** A packet waiting in an output port queue. */
    struct QueuedPacket
    {
        EthFrame frame;
        Cycles release = 0;  //!< earliest cycle the first token may leave
        uint64_t seq = 0;    //!< global arrival order for deterministic ties
    };

    struct OutputPort
    {
        RingQueue<QueuedPacket> queue;
        /** Packet currently being serialized onto the link, if any. */
        std::optional<QueuedPacket> active;
        /** Byte position within the active packet. */
        size_t activePos = 0;
        /** Next cycle this port's link is free (one token per cycle). */
        Cycles cursor = 0;
    };

    /** route()'s answer for a frame that leaves through the ports it
     *  listed. */
    static constexpr uint32_t kMultiPort = ~0u;

    /**
     * Forwarding decision: the one port @p frame leaves through, or
     * kMultiPort after appending every port it leaves through to the
     * empty @p ports (each gets its own copy). Default: static MAC
     * table, flooding broadcast and unknown unicast.
     */
    virtual uint32_t route(const EthFrame &frame,
                           std::vector<uint32_t> &ports) const;

    /**
     * Output queueing discipline: place @p packet into @p port's
     * queue. Default: FIFO in timestamp order (packets arrive from a
     * timestamp-sorted switching step, so push_back preserves it).
     */
    virtual void insertInQueue(OutputPort &port, QueuedPacket &&packet);

  private:
    void ingress(Cycles window_start,
                 const std::vector<const TokenBatch *> &in);
    void switchingStep();
    void egress(Cycles window_start, Cycles window,
                const std::vector<TokenBatch *> &out);
    /** Serialize one port's queue into its output batch. */
    void egressPort(uint32_t port, Cycles window_start, Cycles window_end,
                    TokenBatch &out);

    void enqueueOutput(uint32_t port, EthFrame frame, Cycles release,
                       uint64_t seq);

    SwitchConfig cfg;
    SwitchStats stats_;
    FlatU64Map<uint32_t> macTable; //!< MAC value -> egress port
    std::vector<bool> portDown_; //!< administratively-down ports

    std::vector<FrameAssembler> assemblers;      //!< per input port
    /** Holds the recycled buffer the next completed frame swaps in. */
    EthFrame ingressSpare;
    FrameBufferPool bufs;
    /** route()'s port list for a multi-port frame (capacity reused). */
    std::vector<uint32_t> floodPorts;
    /** Packets completed at ingress this round, in arrival (seq)
     *  order; the switching step drains them in (timestamp, seq)
     *  order. */
    std::vector<QueuedPacket> pending;
    std::vector<OutputPort> outputs;
    uint64_t nextSeq = 0;
    uint64_t bytesOutSinceQuery = 0;
};

} // namespace firesim

#endif // FIRESIM_SWITCH_SWITCH_HH
