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
 * and produces one per output port each round, so channel occupancy is
 * invariant and results are independent of the order in which endpoints
 * are stepped (property-tested in tests/net).
 *
 * Parallel round execution: that same step-order independence is the
 * license to advance endpoints concurrently within a round — the
 * decomposition the paper uses to put one blade per FPGA. Each round is
 * executed in three phases:
 *
 *   1. prepare (driving thread, step order): per endpoint, query the
 *      observers' down-verdict, pop one input batch per port, and
 *      claim one output slot per port. Batches never move: the
 *      endpoint is handed pointers to the channels' ring slots.
 *   2. advance (one pool dispatch, barrier at the end): every
 *      endpoint's advance() is one unit, and a RoundScheduler
 *      (net/sched.hh) places the units on workers. Every channel
 *      already holds this round's input batch before the round starts
 *      (latency seeding), so a worker reads the head slots and fills
 *      the tail slots of its endpoint's channels — distinct slots per
 *      endpoint — while ring heads and tails move only on the driving
 *      thread. Placement is pure host policy and never affects
 *      simulated state.
 *   3. commit (driving thread, step order): per endpoint, run transmit
 *      observers, check each filled slot in place and publish it.
 *
 * Because phases 1 and 3 run on the driving thread in step order, every
 * observer callback except onAdvanceStart/onAdvanceEnd fires in a
 * deterministic sequence that is independent of the worker count, and
 * all shared counters are accumulated there — simulation results,
 * stats dumps, AutoCounter samples, and fault diagnostics are
 * byte-identical between 1 worker and N workers.
 *
 * Fast-forward: in the token protocol an empty token carries no work,
 * so a round in which nothing is in flight and no endpoint has pending
 * work changes nothing but clocks. At the start of a round, run()
 * skips whole rounds when all of these hold: no FabricObserver is
 * attached and no RemoteRoundHook is set; every payload batch already
 * published has been consumed; and every endpoint's quiescentUntil()
 * lies at least two rounds ahead. It then shifts every channel by the
 * skipped span (TokenChannel::skip), catches each endpoint up with one
 * advance() over that span fed empty batches, and steps the last quiet
 * round normally, so every endpoint's per-round state (a switch port's
 * link cursor, a blade's clock) ends exactly where round-by-round
 * stepping leaves it. now(), round() and batchesMoved() stay exact;
 * roundsFastForwarded() counts the skipped rounds. Any observer, even
 * one that overrides nothing, keeps round-by-round stepping: the fabric
 * cannot yet tell which hooks an observer uses.
 *
 * Fault modeling and health monitoring: FabricObservers (src/fault) may
 * attach to the fabric to take endpoints down, mutate in-flight batches,
 * and convert token-protocol violations — an endpoint that stops
 * producing well-formed batches — into structured diagnostics instead of
 * aborts. The round loop has one path: it detects every violation and
 * asks the observers; when none recovers it (always, with no observers
 * attached) it panics, naming the channel.
 */

#ifndef FIRESIM_NET_FABRIC_HH
#define FIRESIM_NET_FABRIC_HH

#include <cstdint>
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
    /** Why a batch cannot be accepted (see accepts()). */
    enum class PushError
    {
        Ok,            //!< batch is well formed and contiguous
        BadLength,     //!< batch length differs from the channel quantum
        NonContiguous, //!< batch start does not extend the token stream
    };

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

    /** Check whether publishing @p batch would satisfy the token
     *  protocol. */
    PushError accepts(const TokenBatch &batch) const;

    /**
     * Producer side: the ring's free slot, emptied (flit capacity kept)
     * and stamped (@p production_start, quantum), to be filled in place
     * and then enqueued by publish(). The slot is never the one the
     * consumer is reading this round.
     */
    TokenBatch &claim(Cycles production_start);

    /**
     * Producer side: enqueue the claimed slot, restamped from production
     * to arrival time. Panics, naming the channel, when the batch has
     * the wrong length or does not extend the token stream.
     */
    void publish();

    /** Producer side: enqueue a copy of @p batch (claim + publish). */
    void push(const TokenBatch &batch);

    /**
     * Testing / fault-injection hook: enqueue a batch with the usual
     * production-to-arrival restamp but *without* the contiguity check
     * and without touching the producer-side bookkeeping, deliberately
     * corrupting the token stream so consumer-side error handling can
     * be exercised.
     */
    void pushRaw(TokenBatch batch);

    /** Consumer side: true when a batch is ready. */
    bool ready() const { return used > 0; }

    /**
     * Consumer side: dequeue the oldest batch and return its slot,
     * which stays intact until the producer claims it again (not this
     * round). Only moves the ring head; checking that the batch is the
     * one the consumer expects is the caller's job (TokenFabric).
     */
    TokenBatch &pop();

    /** Arrival cycle the next pop() is expected to carry. */
    Cycles nextPopCycle() const { return nextPopStart; }

    /** Number of buffered batches. */
    size_t depth() const { return used; }

    /** Steady-state depth: latency/quantum batches are always in flight. */
    size_t expectedDepth() const
    {
        return static_cast<size_t>(lat / quant);
    }

    /**
     * Fast-forward: move the token stream @p span cycles (a multiple of
     * the quantum) ahead without popping or publishing, as if that many
     * cycles of empty batches had flowed through. Restamps the buffered
     * batches and both cursors; panics, naming the channel, when a
     * buffered batch carries payload.
     */
    void skip(Cycles span);

    /**
     * Serialize the channel's full mid-flight state: latency/quantum,
     * both stream cursors, and every buffered batch's flits. Restore
     * compares these bytes with the replayed channel's.
     */
    void snapshotSave(Serializer &s) const;

  private:
    /** Enqueue the tail slot, growing the ring when that fills it
     *  (only pushRaw() abuse can: the protocol keeps the occupancy
     *  at latency/quantum). */
    void enqueueTail();

    Cycles lat;
    Cycles quant;
    std::string lbl = "unnamed-channel";
    Cycles nextPushStart = 0; //!< producer-side batch start bookkeeping
    Cycles nextPopStart = 0;  //!< consumer-side expected batch start
    // The ring owns all of the link's batch storage: producers fill
    // the tail slot in place and consumers read the head slot in
    // place, so once each slot's flit capacity has warmed up, moving
    // tokens allocates nothing (tests/net/fabric_alloc_test). Sized at
    // construction for the invariant occupancy plus slack, it never
    // reallocates in the steady state.
    std::vector<TokenBatch> slots;
    size_t head = 0; //!< index of the oldest batch
    size_t used = 0; //!< batches in the ring
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
     * Both batch sets live in the channels' ring slots and are valid
     * only during this call; the fabric checks and publishes the
     * outputs afterwards.
     */
    virtual void advance(Cycles window_start, Cycles window,
                         const std::vector<const TokenBatch *> &in,
                         const std::vector<TokenBatch *> &out) = 0;

    /**
     * The earliest cycle at which this endpoint could emit a flit or
     * change state without new input, asked at the round boundary
     * @p now. The fabric fast-forwards over rounds that lie wholly
     * before every endpoint's answer (see the file comment), calling
     * advance() once over the skipped span with empty inputs; that call
     * must emit nothing. kNoCycle means "idle until input arrives". The
     * default, @p now, never lets the fabric skip.
     */
    virtual Cycles quiescentUntil(Cycles now) const { return now; }

    /** Always 1; perfbench/span_trace.cc is its only user. */
    uint32_t advanceSliceCount() const { return 1; }
};

/**
 * Hook interface for fault injection and health monitoring (src/fault).
 * All callbacks default to no-ops; a fabric with no observers — or only
 * no-op observers — simulates bit-identically to one without the hooks.
 *
 * Callback order within a round:
 *   onRoundStart -> per endpoint: endpointDown? -> [input anomalies]
 *   -> skip notification for down endpoints -> advance brackets
 *   -> per port: onTransmit -> [output anomalies] -> onRoundEnd
 * Observers fire in registration order; endpointDown answers are OR-ed.
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
 * Attaching any observer, even one that overrides nothing, turns off
 * the fabric's fast-forward over quiescent rounds (see the file
 * comment): every round is stepped and every hook fires, at the host
 * cost of stepping idle rounds.
 */
class FabricObserver
{
  public:
    /** Anomaly classes the monitored fabric can recover from. */
    enum class Anomaly
    {
        BadLength,        //!< endpoint produced a wrong-length batch
        NonContiguous,    //!< batch does not extend the token stream
        StaleBatch,       //!< popped batch not for the current window
        ChannelUnderflow, //!< input channel had no batch ready
    };

    virtual ~FabricObserver() = default;

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
     * True when endpoint @p endpoint_idx must not run this round: the
     * fabric discards its inputs and emits empty token batches on its
     * behalf, keeping the rest of the cluster cycle-exact.
     * Must depend only on (endpoint_idx, round_start) and state settled
     * before the round — the fabric may ask before stepping anything.
     */
    virtual bool endpointDown(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
        return false;
    }

    /** Notification that a down endpoint was skipped this round. */
    virtual void onEndpointSkipped(size_t endpoint_idx, Cycles round_start)
    {
        (void)endpoint_idx;
        (void)round_start;
    }

    /**
     * Bracketing hooks around an endpoint's advance() call, fired only
     * when the endpoint actually runs (not when skipped while down).
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

    /**
     * Mutate an outbound batch before it enters its channel. Called for
     * every produced batch, including the empty ones emitted on behalf
     * of down endpoints (so e.g. delayed payload can still drain).
     */
    virtual void onTransmit(size_t channel_idx, TokenBatch &batch)
    {
        (void)channel_idx;
        (void)batch;
    }

    /**
     * A token-protocol violation was detected at @p endpoint_idx /
     * @p port. Return true to recover: the fabric substitutes a
     * well-formed batch (empty on the output side, restamped on the
     * input side) and continues. Return false to abort as before.
     */
    virtual bool onAnomaly(Anomaly kind, size_t endpoint_idx, uint32_t port,
                           size_t channel_idx, Cycles round_start,
                           const TokenBatch &batch)
    {
        (void)kind;
        (void)endpoint_idx;
        (void)port;
        (void)channel_idx;
        (void)round_start;
        (void)batch;
        return false;
    }

    /** Called once at the end of every round. */
    virtual void onRoundEnd(Cycles round_start, uint64_t round)
    {
        (void)round_start;
        (void)round;
    }
};

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

    /** Total batches moved across all channels so far (host traffic). */
    uint64_t batchesMoved() const { return batchCount; }

    /**
     * Rounds skipped by fast-forward so far (included in round()).
     * Host-side only: the simulated result is the same either way.
     */
    uint64_t roundsFastForwarded() const { return ffRounds; }

    /**
     * Attach a fault-injection / health-monitoring observer. Callbacks
     * fire in registration order. May be called after finalize() (the
     * observers typically need the finalized channel list to resolve
     * their targets); must not be called mid-run. The fabric does not
     * take ownership.
     */
    void addObserver(FabricObserver *observer);

    /** Number of attached observers. */
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
     * which runs after the observers. Health monitors use this to
     * adjust their occupancy expectations.
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
     * host-local batch counter. Snapshots (manager/checkpoint) store
     * this as the "fabric" section and every channel under its own
     * global link name, so a restore under a different ShardPlan can
     * re-home channels individually. Requires finalize() and a round
     * boundary (now() a multiple of quantum).
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
        /** The port's output batch, reused every round (the TX half
         *  has no channel to own it). */
        TokenBatch tx;
    };

    struct EndpointState
    {
        TokenEndpoint *endpoint = nullptr;
        // Per-port channels; in[i] feeds port i, out[i] drains it.
        std::vector<TokenChannel *> in;
        std::vector<TokenChannel *> out;

        // This round's batches, set in the prepare phase: inPtrs[p] is
        // the slot popped from in[p], outPtrs[p] the slot claimed in
        // out[p] (or the remote link's `tx` batch). Only the worker
        // stepping this endpoint touches the batches during the advance
        // phase.
        std::vector<const TokenBatch *> inPtrs;
        std::vector<TokenBatch *> outPtrs;
        // Per-port index into `pendingRemote` when the TX side is
        // carried by the RemoteRoundHook instead of a TokenChannel; -1
        // for local ports (out[p] set).
        std::vector<int64_t> remoteOut;
        // Per-port indices of in[p] / out[p] in `channels` (set at
        // finalize()): the observer callbacks' channel_idx.
        std::vector<size_t> inIndex;
        std::vector<size_t> outIndex;
        bool down = false; //!< observers parked it this round
    };

    EndpointState &stateFor(TokenEndpoint *endpoint);

    /** Report @p kind to the observers; returns true when some
     *  observer recovered it (never with no observers attached). */
    bool reportAnomaly(FabricObserver::Anomaly kind, size_t endpoint_idx,
                       uint32_t port, size_t channel_idx,
                       const TokenBatch &batch);

    // ---- The three round phases (see the file comment) ---------------
    /** Driving thread: down-verdict, input pops, output-slot claims. */
    void prepareEndpoint(size_t idx);
    /** Any thread: one endpoint's advance() inside its brackets. */
    void advanceEndpoint(size_t idx);
    /** Driving thread: transmit observers, checks, publishes. */
    void commitEndpoint(size_t idx);

    /** Skip the quiet rounds ahead of the round starting now, short of
     *  the last round before @p target (see the file comment). */
    void fastForward(Cycles target);

    Cycles functionalWindow = 0; //!< 0 = cycle-exact timing
    std::vector<Link> pendingLinks;
    std::vector<RemoteLink> pendingRemote;
    // link id -> RX channel (non-owning; the channel lives in
    // `channels` like any other so observers can watch it).
    std::vector<std::pair<uint32_t, TokenChannel *>> remoteRx;
    RemoteRoundHook *remoteHook = nullptr;
    std::vector<EndpointState> endpoints;
    std::vector<std::unique_ptr<TokenChannel>> channels;
    std::vector<FabricObserver *> observers;
    std::vector<size_t> stepOrder;
    /** Stands in for the batch of an input channel that underflowed,
     *  when an observer recovers it. */
    TokenBatch missingBatch;
    std::unique_ptr<ThreadPool> workers; //!< null when single-threaded
    unsigned parHosts = 1;
    /** Unit u is endpoint u; configured for `workers` whenever the
     *  pool or the endpoint list is (re)built. */
    RoundScheduler sched;
    Cycles quant = 0;
    Cycles curCycle = 0;
    uint64_t roundCount = 0;
    uint64_t batchCount = 0;
    uint64_t ffRounds = 0;
    /** Output ports over all endpoints: batches moved per round. */
    uint64_t outPorts = 0;
    /** Arrival end of the latest published payload batch: from this
     *  cycle on, no channel holds a flit. */
    Cycles quietFrom = 0;
    /** Fast-forward catch-up batches: the empty input every port is
     *  handed, and one output per port of the widest endpoint. */
    TokenBatch ffIn;
    std::vector<TokenBatch> ffOut;
    bool finalized = false;
    bool running = false;
};

} // namespace firesim

#endif // FIRESIM_NET_FABRIC_HH
