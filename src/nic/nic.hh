/**
 * @file
 * Network Interface Controller model (paper Section III-A2, Figure 3).
 *
 * The NIC is split into three blocks:
 *
 *  - Controller: four queues exposed to the CPU as memory-mapped I/O —
 *    send request, receive request, send completion, receive completion —
 *    plus an interrupt line asserted while a completion queue is
 *    occupied.
 *
 *  - Send path: reader (issues DMA reads for the packet) -> reservation
 *    buffer (holds and re-orders read data; provides backpressure) ->
 *    aligner (fixes sub-8-byte alignment) -> rate limiter (token bucket:
 *    a counter decremented per transmitted flit and incremented by k
 *    every p cycles, giving an effective bandwidth of k/p of line rate,
 *    settable at runtime without "resynthesis"). The reader posts the
 *    send completion once all reads for the packet have been issued.
 *
 *  - Receive path: packet buffer (the Ethernet link cannot be
 *    back-pressured, so packets are dropped at full-packet granularity
 *    when space is insufficient) -> writer (DMA to the receive-request
 *    address; posts the receive completion only after all writes have
 *    retired).
 *
 * The top-level interface is FAME-1 decoupled, but the receive side
 * acts per frame, as the packet buffer does: at the start of each token
 * window the owning server blade feeds every arriving flit into the
 * NIC's frame assembler (feedFlit(), which only appends bytes until a
 * frame's last flit), and schedules one event per completed frame at
 * its last flit's cycle (admitFrame()), where the drop-or-buffer
 * decision is made. On the send side the blade drains one token per
 * cycle out via drainTx(). Frame byte buffers are recycled through one
 * per-NIC pool: receive DMA and transmit serialization give them back,
 * the assembler and the reader DMA take them.
 */

#ifndef FIRESIM_NIC_NIC_HH
#define FIRESIM_NIC_NIC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "base/ring_queue.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "mem/functional_memory.hh"
#include "net/eth.hh"
#include "net/token.hh"
#include "sim/event_queue.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;

/** NIC build/runtime parameters. */
struct NicConfig
{
    std::string name = "nic";
    /** Controller queue depths. */
    uint32_t sendReqDepth = 64;
    uint32_t recvReqDepth = 64;
    uint32_t compDepth = 64;
    /** Receive packet buffer capacity in bytes. */
    uint32_t packetBufBytes = 64 * KiB;
    /** Reservation buffer capacity in bytes (send-side backpressure). */
    uint32_t reservationBufBytes = 16 * KiB;
    /**
     * DMA model: fixed start latency plus a sustained bandwidth through
     * the memory system. 4 bytes/cycle at 3.2 GHz ~= 100 Gbit/s — this
     * is what caps the bare-metal streaming test at ~100 Gbit/s on a
     * 200 Gbit/s link (paper Section IV-C).
     */
    Cycles dmaStartLatency = 60;
    double dmaBytesPerCycle = 4.0;
    /** Pipeline latency through reservation buffer + aligner. */
    Cycles alignLatency = 2;
    /** Initial token-bucket setting: k tokens every p cycles. */
    uint64_t rateK = 1;
    uint64_t rateP = 1;
};

/** Counters for experiments and tests. */
struct NicStats
{
    Counter framesSent;
    Counter framesReceived;
    Counter framesDroppedRx;
    Counter bytesSent;
    Counter bytesReceived;
    Counter interruptsRaised;
};

/** Receive completion: where the frame landed and its length. */
struct RecvCompletion
{
    uint64_t addr = 0;
    uint32_t len = 0;
};

class Nic
{
  public:
    /**
     * @param config NIC parameters
     * @param queue the owning blade's event queue
     * @param memory the blade's DRAM (DMA target)
     * @param mac this NIC's MAC address
     */
    Nic(NicConfig config, EventQueue &queue, FunctionalMemory &memory,
        MacAddr mac);

    MacAddr mac() const { return macAddr; }
    const NicConfig &config() const { return cfg; }
    const NicStats &stats() const { return stats_; }

    /** Register every NicStats counter under @p prefix. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    // ---- Controller (CPU-facing) ------------------------------------

    /**
     * Enqueue a send request for the frame at [addr, addr+len). The
     * frame bytes (including the Ethernet header) must already be in
     * memory. @return false when the send request queue is full.
     */
    bool pushSendRequest(uint64_t addr, uint32_t len);

    /** Post a receive buffer. @return false when the queue is full. */
    bool pushRecvRequest(uint64_t addr);

    /** Pop a send completion if one is pending. */
    bool popSendComp();

    /** Pop a receive completion if one is pending. */
    std::optional<RecvCompletion> popRecvComp();

    /** Completion-queue occupancy (the MMIO "counts" register). */
    uint32_t sendCompPending() const
    {
        return static_cast<uint32_t>(sendComp.size());
    }
    uint32_t recvCompPending() const
    {
        return static_cast<uint32_t>(recvComp.size());
    }

    /**
     * The interrupt line: asserted while either completion queue is
     * occupied. The handler runs on the blade's event queue whenever the
     * line rises.
     */
    void setInterruptHandler(std::function<void()> handler);

    /** Runtime rate limit: effective bandwidth = k/p x line rate. */
    void setRateLimit(uint64_t k, uint64_t p);

    // ---- Blade-facing token interface --------------------------------

    /**
     * Feed one received token arriving at cycle @p at. Non-final flits
     * only extend the partial frame. @return true when @p flit
     * completes a frame; the frame then waits in the arrival FIFO,
     * and the caller must run admitFrame() at cycle @p at.
     */
    bool feedFlit(const Flit &flit, Cycles at);

    /**
     * Packet-buffer admission of the oldest completed frame, at its
     * last flit's cycle: drop it whole when the buffer lacks space,
     * else buffer it and start the writer.
     */
    void admitFrame();

    /**
     * Move transmitted flits with stamps inside [window_start,
     * window_start+len) into @p out. Must be called after the blade has
     * run its event queue up to the window end.
     */
    void drainTx(Cycles window_start, TokenBatch &out);

    /** Cycle of the next flit waiting to leave (kNoCycle when none). */
    Cycles
    nextTxCycle() const
    {
        return txOutbox.empty() ? kNoCycle : txOutbox.front().first;
    }

    /**
     * Serialize all controller queues, both DMA paths mid-transfer
     * (the reader's and writer's in-flight packets, tx outbox flits,
     * partial rx frame, completed frames awaiting admission, token
     * bucket), and the counters. Event-queue closures (the pumps and
     * admissions) are not in the section — the owning blade's
     * schedule digest covers them; deterministic replay rebuilds
     * them.
     */
    void snapshotSave(Serializer &s) const;

  private:
    struct SendRequest
    {
        uint64_t addr = 0;
        uint32_t len = 0;
    };

    /** A packet whose DMA reads completed, awaiting transmission. */
    struct TxPacket
    {
        EthFrame frame;
    };

    /** A received packet held in the packet buffer. */
    struct RxPacket
    {
        EthFrame frame;
    };

    void readerPump();
    /** The reader's DMA completes: the frame is ready to send. */
    void readerDone();
    void txPump();
    void writerPump();
    /** The writer's DMA retires: post the receive completion. */
    void writerDone();
    void raiseInterrupt();
    /** Refill the token bucket up to the current cycle. */
    void refillBucket();

    NicConfig cfg;
    EventQueue &eq;
    FunctionalMemory &mem;
    MacAddr macAddr;
    NicStats stats_;

    // Controller queues.
    RingQueue<SendRequest> sendReq;
    RingQueue<uint64_t> recvReq;
    RingQueue<uint8_t> sendComp;
    RingQueue<RecvCompletion> recvComp;
    std::function<void()> interruptHandler;

    /** Recycled frame byte buffers, shared by both paths. */
    FrameBufferPool bufs;

    // Send path.
    bool readerBusy = false;
    SendRequest readerReq; //!< the reader's DMA in flight
    uint32_t reservationOccupied = 0; //!< bytes read but not yet sent
    RingQueue<TxPacket> txReady;
    RingQueue<std::pair<Cycles, Flit>> txOutbox;
    bool txPumpScheduled = false;
    Cycles txCursor = 0; //!< next cycle the transmit link is free
    // Token bucket.
    uint64_t bucket = 0;
    Cycles lastRefill = 0;

    // Receive path.
    FrameAssembler rxAssembler;
    /** Holds the recycled buffer the next completed frame swaps in. */
    EthFrame rxSpare;
    /** Completed frames awaiting admitFrame(), oldest first. */
    RingQueue<RxPacket> arrivals;
    uint32_t rxBufOccupied = 0;
    RingQueue<RxPacket> rxBuffer;
    bool writerBusy = false;
    RxPacket writerPkt;      //!< the writer's DMA in flight
    uint64_t writerAddr = 0; //!< its receive-request address
};

} // namespace firesim

#endif // FIRESIM_NIC_NIC_HH
