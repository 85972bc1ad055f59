/**
 * @file
 * The decoupled token fabric (paper Section III-B2).
 *
 * Endpoints (server blades and switches) expose numbered link ports.
 * Every port pair is connected by two unidirectional TokenChannels.
 * A channel of latency N always carries N in-flight tokens: a flit
 * issued by one endpoint at cycle M is consumed by the other at M + N.
 *
 * Host-transport batching: tokens move in batches of `quantum` cycles.
 * FireSim sets the batch size to the link latency; when a topology mixes
 * latencies, the fabric batches by the smallest latency and seeds longer
 * channels with proportionally more in-flight batches, which preserves
 * per-flit delivery cycles exactly.
 *
 * Determinism: each endpoint consumes exactly one batch per input port
 * and produces one per output port each round (implicit empty ones in
 * rounds it sits out, see below), so channel occupancy is invariant and
 * results are independent of the order in which endpoints are stepped
 * (property-tested in tests/net).
 *
 * Parallel round execution: that same step-order independence is the
 * license to advance endpoints concurrently within a round — the
 * decomposition the paper uses to put one blade per FPGA. Each round is
 * executed in three phases over its due endpoints (see below):
 *
 *   1. prepare (driving thread, step order): per endpoint, check its
 *      down-windows (parkEndpoint), pop one input batch per port, and
 *      reset the port's own output batch. Input batches never move:
 *      the endpoint is handed pointers to the channels' ring slots.
 *   2. advance (one pool dispatch, barrier at the end): every
 *      endpoint's advance() is one unit, and a RoundScheduler
 *      (net/sched.hh) places the units on workers. Every channel
 *      already holds this round's input batch once prepared (latency
 *      seeding, plus the empties of a skipped producer), so a worker
 *      only reads popped slots and fills its endpoint's own output
 *      batches, while ring heads and tails move only on the driving
 *      thread. Placement is pure host policy and never affects
 *      simulated state.
 *   3. commit (driving thread, step order): per endpoint, run channel
 *      taps, check each output batch and publish it, which swaps its
 *      flit storage into a ring slot.
 *
 * Because phases 1 and 3 run on the driving thread in step order, every
 * tap and observer callback except onAdvanceStart/onAdvanceEnd fires in
 * a deterministic sequence that is independent of the worker count,
 * and all shared counters are accumulated there — simulation results,
 * stats dumps, AutoCounter samples, and fault diagnostics are
 * byte-identical between 1 worker and N workers.
 *
 * Activity-driven rounds: in the token protocol an empty token carries
 * no work, so a round in which an endpoint receives no payload and has
 * nothing of its own to do changes nothing in it but clocks. Each
 * round therefore prepares, advances and commits only the endpoints
 * that are *due*, in step order. An endpoint is due in the round
 * containing its self-wake — its quiescentUntil(), asked after each of
 * its steps and at the start of every run() — and in the arrival round
 * of any payload batch buffered for it (its input-wake). Rounds in
 * which no endpoint is due are jumped. The same holds per port of a
 * due endpoint: a port on which nothing arrives is handed a shared
 * empty batch, and an empty output batch is not published, so idle
 * ports leave their channels alone. Channels keep the batches so
 * skipped implicitly, as run-length counts of empty batches: a
 * channel's producer side is topped up with empties when it next
 * publishes or is popped, and its consumer side drops the empties that
 * arrived meanwhile when it is next popped, both in O(1). The last
 * round of every run() is dense: each endpoint that was not due is
 * stepped once with empty inputs (a catch-up step, which must emit
 * nothing) and every port moves its batch through its channel, so
 * every clock, cursor, channel and the state image end exactly where
 * round-by-round stepping leaves them; now(), round() and
 * batchesMoved() are exact at all times.
 *
 * Observers come in two kinds (FabricObserver::watchesEndpoints()). An
 * endpoint observer (the default; perfbench's span tracer and test
 * observers) makes every endpoint due and every round dense. A round
 * observer (the heartbeat monitor, the fault injector, the AutoCounter
 * sampler) only stops rounds from being jumped. So only the last round
 * of a run() is dense, and Cluster::run ends a run() at each
 * AutoCounter sample. A remote port or a tapped channel keeps its
 * endpoint due every round, and a RemoteRoundHook stops every jump,
 * since each round is a barrier with the peers. roundsFastForwarded()
 * counts jumped rounds and endpointRoundsStepped() the due steps; both
 * are host-side only.
 *
 * Faults (src/fault) watch no endpoint. A down-window (parkEndpoint),
 * checked in prepare for due endpoints, discards an endpoint's inputs
 * and leaves its outputs empty; it is due in the round before each
 * window, so it is parked where round-by-round stepping parks it. A
 * channel tap (tapChannel) may rewrite each batch its producer emits,
 * one per round. Without either, each costs one test per due endpoint.
 *
 * Token-protocol violations: every batch an endpoint emits and every
 * batch an input channel hands out is checked, and a violation — an
 * endpoint that stops producing well-formed batches, or a corrupted
 * token stream — panics, naming the channel, observers or not.
 */

#ifndef FIRESIM_NET_FABRIC_HH
#define FIRESIM_NET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "net/sched.hh"
#include "net/token.hh"

namespace firesim
{

class TokenFabric;
class Serializer;

/** One direction of a simulated link. */
class TokenChannel
{
  public:
    /**
     * @param latency link latency in cycles
     * @param quantum batch length in cycles (must divide latency)
     */
    TokenChannel(Cycles latency, Cycles quantum);

    Cycles latency() const { return lat; }
    Cycles quantum() const { return quant; }

    /**
     * Debug label naming the producing and consuming endpoint:port,
     * set by TokenFabric::connect and reported in protocol-violation
     * diagnostics (a bare cycle number is useless in a 64-node run).
     */
    const std::string &label() const { return lbl; }
    void setLabel(std::string label) { lbl = std::move(label); }

    /**
     * Producer side: enqueue @p batch (stamped with its production
     * window), restamped from production to arrival time. A payload
     * batch takes a ring slot and swaps its flit storage with the
     * slot's, so @p batch keeps a warmed-up capacity and nothing is
     * copied; an empty one extends the tail run. Panics, naming the
     * channel, when the batch has the wrong length or does not extend
     * the token stream.
     */
    void publish(TokenBatch &batch);

    /** Producer side: enqueue a copy of @p batch (see publish()). */
    void push(const TokenBatch &batch);

    /**
     * Testing hook: enqueue a batch with the usual
     * production-to-arrival restamp but *without* the contiguity check
     * and without touching the producer-side bookkeeping, deliberately
     * corrupting the token stream so consumer-side error handling can
     * be exercised.
     */
    void pushRaw(TokenBatch batch);

    /** Consumer side: true when a batch is ready. */
    bool ready() const { return batches > 0; }

    /**
     * Consumer side: dequeue the oldest batch and return it: its ring
     * slot for a payload batch, or a batch of the channel's own for
     * one of an empty run. Either stays intact until the channel next
     * enqueues or pops (the fabric's commit phase or next round). Only
     * moves the ring head; checking that the batch is the one the
     * consumer expects is the caller's job (TokenFabric).
     */
    TokenBatch &pop();

    /** Arrival cycle the next pop() is expected to carry. */
    Cycles nextPopCycle() const { return nextPopStart; }

    /** Number of buffered batches, empty runs expanded. */
    size_t depth() const { return batches; }

    /**
     * depth() as it would read once the producer had published every
     * production window that starts before @p round_end and the
     * consumer had popped every batch arriving before it: the depth a
     * dense round leaves, whatever rounds either side sat out. Not for
     * the RX half of a remote link, whose producer side the transport
     * fills in the round barrier: its depth() is already current.
     */
    size_t
    depthAt(Cycles round_end) const
    {
        Cycles pushed = round_end + lat;
        size_t pending = nextPushStart < pushed
                             ? static_cast<size_t>((pushed - nextPushStart) /
                                                   quant)
                             : 0;
        size_t drained = nextPopStart < round_end
                             ? static_cast<size_t>((round_end - nextPopStart) /
                                                   quant)
                             : 0;
        return batches + pending - drained;
    }

    /**
     * Producer side, for a producer that sat out rounds: enqueue the
     * empty batches of every production window before
     * @p production_start it has not published, as if it had stepped
     * through them idle. A no-op when it is up to date. O(1).
     */
    void
    fillIdle(Cycles production_start)
    {
        Cycles end = production_start + lat;
        if (nextPushStart < end)
            appendEmpties((end - nextPushStart) / quant);
    }

    /**
     * Consumer side, for a consumer that sat out rounds: drop every
     * batch due to arrive before @p arrival, as if it had popped each.
     * Panics, naming the channel, when one carries payload (its
     * arrival should have made the consumer pop it). O(1) per run.
     */
    void
    drainTo(Cycles arrival)
    {
        if (nextPopStart < arrival)
            dropEmpties((arrival - nextPopStart) / quant);
    }

    /**
     * Arrival cycle at which the consumer, popping once per round from
     * nextPopCycle() on, reaches the oldest buffered batch that is not
     * part of an empty run (payload, or a pushRaw() batch); kNoCycle
     * when there is none.
     */
    Cycles nextPayloadCycle() const;

    /**
     * Serialize the channel's full mid-flight state: latency/quantum,
     * both stream cursors, and every buffered batch's flits (the
     * state image's "chan<link>" section).
     */
    void snapshotSave(Serializer &s) const;

  private:
    /**
     * A ring entry: either one buffered batch (`empties` == 0) or a
     * run of `empties` empty batches, the first stamped `batch.start`
     * and the rest following it at quantum steps.
     */
    struct Slot
    {
        TokenBatch batch;
        uint64_t empties = 0;
    };

    /** Enqueue the tail slot, growing the ring when that fills it
     *  (only pushRaw() abuse can: the protocol bounds the entries). */
    void enqueueTail();
    /** publish()/push(): check @p batch and enqueue it, returning the
     *  ring slot batch (stamped, flits cleared) that is to receive its
     *  payload, or null when it extended the tail run. */
    TokenBatch *admit(const TokenBatch &batch);
    /** Append @p count empty batches at the producer cursor. */
    void appendEmpties(uint64_t count);
    /** Drop @p count empty batches from the head (drainTo()). */
    void dropEmpties(uint64_t count);
    /** Ring index of the entry @p i places behind the head
     *  (@p i <= slots.size()). */
    size_t
    ringIndex(size_t i) const
    {
        size_t k = head + i;
        return k < slots.size() ? k : k - slots.size();
    }
    Slot &tailSlot() { return slots[ringIndex(used)]; }

    Cycles lat;
    Cycles quant;
    Cycles nextPushStart = 0; //!< producer-side batch start bookkeeping
    Cycles nextPopStart = 0;  //!< consumer-side expected batch start
    // The ring holds the link's buffered batches: publish() swaps a
    // payload batch's flit storage into the tail slot and consumers
    // read payload slots in place, so once the storage in circulation
    // has warmed up, moving tokens allocates nothing
    // (tests/net/fabric_alloc_test). Empty batches take no slot of
    // their own: they extend a run entry. Sized at construction for
    // the most entries the protocol allows (latency/quantum payload
    // batches and the runs between them), it never reallocates in the
    // steady state.
    std::vector<Slot> slots;
    size_t head = 0;    //!< index of the oldest entry
    size_t used = 0;    //!< entries in the ring
    size_t batches = 0; //!< buffered batches, empty runs expanded
    /** What pop() hands out for a batch of an empty run. */
    TokenBatch idle;
    std::string lbl = "unnamed-channel"; // cold: diagnostics only
};

/**
 * Anything that terminates simulated links: a server blade's NIC-side
 * token interface or a switch. The FAME-1 contract: advance() is handed
 * exactly one input batch per port and must fill one output batch per
 * port, advancing the component by `window` cycles.
 *
 * Threading: in parallel mode the fabric calls advance() from a worker
 * thread, concurrently with other endpoints' advance() calls. All
 * cross-endpoint interaction is mediated by the latency-buffered token
 * channels, so an endpoint that only touches its own state (every
 * endpoint in this code base) needs no synchronization.
 */
class TokenEndpoint
{
  public:
    virtual ~TokenEndpoint() = default;

    /** Number of link ports on this endpoint. */
    virtual uint32_t numPorts() const = 0;

    /** Human-readable name for diagnostics. */
    virtual std::string name() const = 0;

    /**
     * Advance `window` target cycles.
     * @param window_start first cycle of the window
     * @param window number of cycles to advance
     * @param in one input batch per port (covering the *link arrival*
     *           cycles of this window; the fabric accounts for latency)
     * @param out one empty output batch per port to fill, stamped with
     *            this window (start = window_start, len = window)
     *
     * Both batch sets belong to the fabric (input batches are the
     * channels' ring slots, or a shared empty batch) and are valid only
     * during this call; the fabric checks and publishes the outputs
     * afterwards.
     */
    virtual void advance(Cycles window_start, Cycles window,
                         const std::vector<const TokenBatch *> &in,
                         const std::vector<TokenBatch *> &out) = 0;

    /**
     * The earliest cycle at which this endpoint could emit a flit or
     * change state without new input, asked at the round boundary
     * @p now (after each of its steps and at the start of run()). The
     * fabric steps it next in the round containing the answer, or
     * earlier when payload arrives for it (see the file comment);
     * kNoCycle means "idle until input arrives". The default, @p now,
     * makes it due every round.
     *
     * The contract that licenses skipping: an advance() over a window
     * before the answer, with empty inputs, only moves the endpoint's
     * clocks and emits nothing — so stepping just the last of a stretch
     * of such windows leaves the endpoint exactly as stepping every one
     * of them does. Each window stepped in a run()'s last round that
     * the endpoint was not due for is checked to emit nothing.
     */
    virtual Cycles quiescentUntil(Cycles now) const { return now; }

    /** Always 1; perfbench/span_trace.cc is its only user. */
    uint32_t advanceSliceCount() const { return 1; }
};

/**
 * Hook interface for telemetry, monitoring, fault bookkeeping and
 * perfbench's span tracer. All callbacks default to no-ops; a fabric
 * with no observers — or only no-op observers — simulates
 * bit-identically to one without the hooks.
 *
 * Callback order within a round: onRoundStart -> advance brackets per
 * due endpoint that is not parked -> (channel taps) -> onRoundEnd.
 * Observers fire in registration order.
 *
 * Threading contract: every callback fires on the fabric's driving
 * thread, in an order independent of the worker count, EXCEPT
 * onAdvanceStart/onAdvanceEnd, which fire on the worker that advances
 * the endpoint and may run concurrently across endpoints when parallel
 * execution is enabled (TokenFabric::setParallelHosts). Implementations
 * of those two hooks must be thread-safe; for one endpoint the pair is
 * always called on the same thread, in order. The fabric never fires
 * onSliceStart/onSliceEnd.
 *
 * Attaching any observer stops the fabric from jumping rounds. One
 * whose watchesEndpoints() is true (the default) also steps every
 * endpoint in every round (see the file comment). One that returns
 * false gets only onAttach, onRoundStart and onRoundEnd, and only a
 * run()'s last round has every endpoint caught up at onRoundEnd.
 */
class FabricObserver
{
  public:
    virtual ~FabricObserver() = default;

    /**
     * True when this observer uses the advance brackets, which then
     * fire for every endpoint in every round; false keeps the fabric
     * stepping only due endpoints. Asked once, at addObserver.
     */
    virtual bool watchesEndpoints() const { return true; }

    /**
     * Called once from TokenFabric::addObserver with the fabric the
     * observer was just attached to. Observers that keep per-endpoint
     * state (e.g. a span tracer's advance timers) size it here so no
     * callback has to grow containers from a worker thread.
     */
    virtual void onAttach(TokenFabric &fabric) { (void)fabric; }

    /** Called once at the start of every round. */
    virtual void onRoundStart(Cycles round_start, uint64_t round)
    {
        (void)round_start;
        (void)round;
    }

    /**
     * Bracketing hooks around an endpoint's advance() call, fired only
     * when the endpoint actually runs (not when parked).
     * perfbench's SpanTracer (perfbench/span_trace.cc, `--trace 1`)
     * hangs scoped timers here to attribute wall-clock to switch ticks
     * vs blade ticks without touching the endpoints themselves.
     *
     * These two hooks are the only callbacks that may fire concurrently
     * from worker threads (see the class comment); keep them
     * thread-safe and free of target-visible side effects.
     */
    virtual void onAdvanceStart(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    virtual void onAdvanceEnd(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    /** perfbench/span_trace.cc is its only user. */
    static constexpr int32_t kBeginSlice = -1;

    /** Never fired; perfbench/span_trace.cc is their only user. */
    virtual void onSliceStart(size_t endpoint_idx, int32_t slice,
                              Cycles round_start)
    {
        (void)endpoint_idx;
        (void)slice;
        (void)round_start;
    }

    virtual void onSliceEnd(size_t endpoint_idx, int32_t slice,
                            Cycles round_start)
    {
        (void)endpoint_idx;
        (void)slice;
        (void)round_start;
    }

    /** Called once at the end of every round. */
    virtual void onRoundEnd(Cycles round_start, uint64_t round)
    {
        (void)round_start;
        (void)round;
    }
};

/** A channel's transmit tap (TokenFabric::tapChannel): may rewrite
 *  the payload of each batch, not its stamp or length. */
using ChannelTap = std::function<void(TokenBatch &batch)>;

/**
 * Transport hook for links whose far end lives in another OS process
 * (net/remote). The fabric calls onTxBatch once per remote output port
 * per round (driving thread, commit phase, step order) with the batch
 * and its *production* start cycle, and onRoundComplete after every
 * round's commits and onRoundEnd observers. onRoundComplete is the
 * distributed round barrier: it must flush the round's outbound
 * batches, wait for every peer's matching round, and push the received
 * batches into their RX channels (TokenFabric::remoteRxChannel) before
 * returning — the next round's prepare phase pops them.
 */
class RemoteRoundHook
{
  public:
    virtual ~RemoteRoundHook() = default;

    /** One batch produced for remote link @p link_id this round. The
     *  batch is borrowed: copy or serialize before returning. */
    virtual void onTxBatch(uint32_t link_id, const TokenBatch &batch) = 0;

    /** Round @p round (starting at cycle @p round_start) committed
     *  locally; barrier with the peer shards. */
    virtual void onRoundComplete(uint64_t round, Cycles round_start) = 0;
};

/**
 * Owns the endpoints' wiring and drives the decoupled simulation in
 * rounds. Mirrors FireSim's distributed runner, with in-process queues
 * standing in for PCIe/shared-memory transport (the modeled host
 * costs of those transports live in src/host). Links to endpoints in
 * *other processes* are carried by a socket transport instead
 * (connectRemote + net/remote): same latency-sized batches, same
 * round discipline, byte-identical results.
 */
class TokenFabric
{
  public:
    /** Register an endpoint; the fabric does not take ownership. */
    void addEndpoint(TokenEndpoint *endpoint);

    /**
     * Create the two channels of a full-duplex link between
     * (a, port_a) and (b, port_b) with the given latency in cycles.
     */
    void connect(TokenEndpoint *a, uint32_t port_a, TokenEndpoint *b,
                 uint32_t port_b, Cycles latency);

    /**
     * Connect (local, port) to an endpoint in *another process*. Only
     * the receive direction gets a TokenChannel here (seeded with
     * latency cycles of empty tokens, exactly like a local link); the
     * transmit direction has no channel — each round's produced batch
     * is handed to the RemoteRoundHook (setRemoteHook) instead, which
     * carries it to the peer shard's matching RX channel. The two
     * directions carry distinct global, topology-derived ids:
     * @p rx_link_id labels tokens *arriving* here (it keys
     * remoteRxChannel() and must match what the peer transmits with),
     * @p tx_link_id labels tokens this port *produces* (the hook and
     * the wire frames carry it; it is the peer's rx id for this link).
     * @p peer_label names the far end in diagnostics. The timing
     * contract is unchanged: a flit produced at cycle M arrives at
     * M + latency. Because the fabric quantum never exceeds the link
     * latency, a batch produced in round R is not popped before round
     * R+1 — one round of pipeline slack for the socket transport, with
     * no same-round blocking.
     */
    void connectRemote(TokenEndpoint *local, uint32_t port, Cycles latency,
                       uint32_t rx_link_id, uint32_t tx_link_id,
                       const std::string &peer_label);

    /**
     * The RX channel created by connectRemote() for @p link_id, or
     * null. The transport pushes received batches here (production
     * start cycle; push() restamps to arrival). Requires finalize().
     */
    TokenChannel *remoteRxChannel(uint32_t link_id) const;

    /**
     * Attach the transport hook serving every connectRemote() link.
     * Required before run() when remote links exist; must not change
     * mid-run. The fabric does not take ownership.
     */
    void setRemoteHook(RemoteRoundHook *hook);

    /**
     * Switch to purely functional network simulation (paper Section
     * VII: the far end of the performance/accuracy curve, where
     * "individual simulated nodes run at 150+ MHz while still
     * supporting the transport of Ethernet frames"). Every link's
     * latency is coarsened to @p window cycles, so endpoints advance
     * in large decoupled windows and host rounds shrink by
     * window/latency; frame *delivery* remains exact, frame *timing*
     * is quantized to the window. Call before finalize().
     */
    void setFunctionalMode(Cycles window);

    /**
     * Advance endpoints with @p hosts-way parallelism inside each
     * round, modeling the paper's one-blade-per-FPGA scale-out on host
     * threads. 0 and 1 both mean single-threaded execution (no pool is
     * created); the round phase structure and all results are
     * byte-identical for every value. Must not be called mid-run; may
     * be called before or after finalize() and between run() calls.
     */
    void setParallelHosts(unsigned hosts);

    /** Configured intra-round parallelism (>= 1). */
    unsigned parallelHosts() const { return parHosts; }

    /**
     * Wall-clock per-worker load accounting for the parallel round
     * loop. Meaningful only after run() with parallelHosts >= 2;
     * never part of the deterministic telemetry surface.
     */
    const SchedTelemetry &schedTelemetry() const
    {
        return sched.telemetry();
    }

    /**
     * Finalize wiring: checks that every port is connected, computes the
     * round quantum, and seeds every channel with its latency's worth of
     * empty tokens. Must be called exactly once before run().
     */
    void finalize();

    /** Advance the whole target by @p cycles (rounded up to rounds). */
    void run(Cycles cycles);

    /** Current target cycle (all endpoints have advanced this far). */
    Cycles now() const { return curCycle; }

    /** Number of completed rounds. */
    uint64_t round() const { return roundCount; }

    /** Round quantum in cycles (min link latency). */
    Cycles quantum() const { return quant; }

    /** Total batches moved across all output ports so far (host
     *  traffic), counting the implicit empty ones. */
    uint64_t batchesMoved() const { return roundCount * outPorts; }

    /**
     * Rounds in which no endpoint was due, jumped without stepping
     * anything (included in round()). Host-side only: the simulated
     * result is the same either way.
     */
    uint64_t roundsFastForwarded() const { return jumpedRounds; }

    /**
     * Endpoint-rounds stepped because the endpoint was due, excluding
     * the catch-up steps at the end of each run(). Host-side only.
     */
    uint64_t endpointRoundsStepped() const { return dueSteps; }

    /**
     * Park endpoint @p idx in every round overlapping [@p from,
     * @p until) (see the file comment). Windows accumulate. Not mid-run.
     */
    void
    parkEndpoint(size_t idx, Cycles from, Cycles until)
    {
        FS_ASSERT(!running, "parkEndpoint() mid-run");
        endpoints.at(idx).parked.emplace_back(from, until);
    }

    /** True when round @p round_start overlaps [@p from, @p until),
     *  where @p until 0 is forever. */
    bool
    roundOverlaps(Cycles round_start, Cycles from, Cycles until) const
    {
        return round_start + quant > from &&
               (until == 0 || round_start < until);
    }

    /** Run @p tap on each batch endpoint @p idx emits into the local
     *  channel out of port @p port, in commit, before an empty batch is
     *  left implicit; the endpoint becomes due every round. Taps run in
     *  registration order. After finalize(), not mid-run. */
    void tapChannel(size_t idx, uint32_t port, ChannelTap tap);

    /**
     * Attach an observer (telemetry, monitoring, fault bookkeeping).
     * Callbacks fire in registration order. May be called after
     * finalize() (the observers typically need the finalized channel
     * list to resolve their targets); must not be called mid-run. The
     * fabric does not take ownership.
     */
    void addObserver(FabricObserver *observer);

    /** Number of attached observers, of either kind. */
    size_t observerCount() const { return observers.size(); }

    // ---- Introspection for observers and diagnostics ----------------

    size_t endpointCount() const { return endpoints.size(); }
    TokenEndpoint &endpointAt(size_t idx) const
    {
        return *endpoints.at(idx).endpoint;
    }
    /** Index of the endpoint named @p name, or -1. */
    int endpointIndexOf(const std::string &name) const;

    size_t channelCount() const { return channels.size(); }
    TokenChannel &channelAt(size_t idx) const { return *channels.at(idx); }
    /**
     * True when channel @p idx is the RX half of a remote link. Such a
     * channel is one batch short at onRoundEnd time: its refill
     * arrives in the round barrier (RemoteRoundHook::onRoundComplete),
     * which runs after the observers, and its depth() is current then
     * (see TokenChannel::depthAt).
     */
    bool channelIsRemoteRx(size_t idx) const;
    /**
     * Index of the channel carrying tokens *out of* port @p port of
     * endpoint @p endpoint_idx, or -1. Requires finalize().
     */
    int txChannelOf(size_t endpoint_idx, uint32_t port) const;

    /**
     * Testing hook: permute the endpoint stepping order. Results must
     * not change (decoupled determinism); property tests rely on this.
     */
    void setStepOrder(std::vector<size_t> order);

    /**
     * Serialize the fabric's round state: the quantum, cycle and
     * round count — *without* the channels or the
     * host-local batch counter. Cluster::stateImage stores this as the
     * "fabric" section and every channel under its own global link
     * name, so images taken under different ShardPlans compare
     * channel by channel. Requires finalize() and a round boundary
     * (now() a multiple of quantum).
     */
    void snapshotSave(Serializer &s) const;

  private:
    struct Link
    {
        TokenEndpoint *a = nullptr;
        uint32_t portA = 0;
        TokenEndpoint *b = nullptr;
        uint32_t portB = 0;
        Cycles latency = 0;
    };

    /** A half-link whose far end lives in another shard process. */
    struct RemoteLink
    {
        TokenEndpoint *local = nullptr;
        uint32_t port = 0;
        Cycles latency = 0;
        uint32_t rxLinkId = 0; //!< id of tokens arriving on this port
        uint32_t txLinkId = 0; //!< id of tokens produced by this port
        std::string peerLabel;
    };

    struct EndpointState
    {
        TokenEndpoint *endpoint = nullptr;
        // Per-port channels; in[i] feeds port i, out[i] drains it.
        std::vector<TokenChannel *> in;
        std::vector<TokenChannel *> out;

        // This round's batches, set in the prepare phase: inPtrs[p] is
        // the batch popped from in[p] (or the fabric's shared empty
        // batch when nothing arrives there), outPtrs[p] is outBuf[p].
        // Only the worker stepping this endpoint touches them during
        // the advance phase.
        std::vector<const TokenBatch *> inPtrs;
        std::vector<TokenBatch *> outPtrs;
        /** Per-port output batch, reused every round; commit publishes
         *  it into out[p] (or hands it to the RemoteRoundHook). */
        std::vector<TokenBatch> outBuf;
        /** Per port: the arrival cycle of the oldest payload batch
         *  buffered in in[p] (TokenChannel::nextPayloadCycle()), or
         *  kNoCycle. Kept here so idle ports cost no channel access. */
        std::vector<Cycles> inNext;
        // Per-port index into `pendingRemote` when the TX side is
        // carried by the RemoteRoundHook instead of a TokenChannel; -1
        // for local ports (out[p] set).
        std::vector<int64_t> remoteOut;
        // Per-port index of out[p] in `channels` (set at finalize()),
        // which keys `taps`.
        std::vector<size_t> outIndex;
        // Per port: the endpoint consuming out[p] and its port there,
        // for its input-wake; -1 for remote ports.
        std::vector<int64_t> outPeer;
        std::vector<uint32_t> outPeerPort;
        std::vector<std::pair<Cycles, Cycles>> parked; //!< down-windows
        bool everyRound = false; //!< a remote port or tapped channel
        bool tapped = false;     //!< some out[p] has a tap
        bool down = false;       //!< parked this round
        bool catchUp = false; //!< stepped only because run() ends
    };

    EndpointState &stateFor(TokenEndpoint *endpoint);

    // ---- The three round phases (see the file comment) ---------------
    /** Driving thread: down-windows, input pops, output resets. */
    void prepareEndpoint(size_t idx);
    /** Any thread: one endpoint's advance() inside its brackets. */
    void advanceEndpoint(size_t idx);
    /** Driving thread: channel taps, checks, publishes. */
    void commitEndpoint(size_t idx);

    /** The round start at which endpoint @p idx is next due, asked
     *  at the round boundary @p now: the earliest of its self-wake,
     *  its oldest buffered payload's arrival and the round before its
     *  next down-window (0 for an endpoint due every round). */
    Cycles wakeOf(size_t idx, Cycles now) const;

    Cycles functionalWindow = 0; //!< 0 = cycle-exact timing
    std::vector<Link> pendingLinks;
    std::vector<RemoteLink> pendingRemote;
    // link id -> RX channel (non-owning; the channel lives in
    // `channels` like any other so observers can watch it).
    std::vector<std::pair<uint32_t, TokenChannel *>> remoteRx;
    RemoteRoundHook *remoteHook = nullptr;
    std::vector<EndpointState> endpoints;
    std::vector<std::unique_ptr<TokenChannel>> channels;
    /** Every observer: the round hooks fire for these. */
    std::vector<FabricObserver *> observers;
    /** The observers that watch endpoints (watchesEndpoints()): the
     *  advance brackets fire for these, and any makes rounds dense. */
    std::vector<FabricObserver *> endpointObservers;
    /** Per channel: its taps, in registration order. */
    std::vector<std::vector<ChannelTap>> taps;
    std::vector<size_t> stepOrder;
    /** This round's input on every port with nothing arriving. */
    TokenBatch idleIn;
    /** Every port of every stepped endpoint moves its batch through
     *  its channel this round (an endpoint observer attached, or the
     *  last round of a run()); otherwise idle ports leave their
     *  channels alone. */
    bool denseRound = false;
    std::unique_ptr<ThreadPool> workers; //!< null when single-threaded
    unsigned parHosts = 1;
    /** Unit u is endpoint u; configured for `workers` whenever the
     *  pool or the endpoint list is (re)built. */
    RoundScheduler sched;
    Cycles quant = 0;
    Cycles curCycle = 0;
    uint64_t roundCount = 0;
    uint64_t jumpedRounds = 0;
    uint64_t dueSteps = 0;
    /** Output ports over all endpoints: batches moved per round. */
    uint64_t outPorts = 0;
    /** Per endpoint: the round start at which it is next due. */
    std::vector<Cycles> wake;
    /** This round's due endpoints, in step order (capacity reserved
     *  at finalize()). */
    std::vector<uint32_t> due;
    bool finalized = false;
    bool running = false;
};

} // namespace firesim

#endif // FIRESIM_NET_FABRIC_HH
