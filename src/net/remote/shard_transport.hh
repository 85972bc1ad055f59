/**
 * @file
 * The round engine that splits one Cluster across N OS processes
 * (paper Section III-B: simulations "partitioned across FPGAs and
 * machines", with token channels carried over whatever fabric the
 * host platform offers).
 *
 * Each process ("shard") owns a subset of the endpoints and runs an
 * ordinary TokenFabric over them. Links whose two ends live in
 * different shards become a connectRemote() half-link on each side:
 * the RX direction is a normal latency-seeded TokenChannel, the TX
 * direction hands each round's batch to this transport, which frames
 * it (net/remote/wire) and ships it over a PeerLink bridge
 * (net/remote/peer_link) — TCP or AF_UNIX sockets (socket_link), or a
 * lock-free shared-memory ring pair for same-host peers (shm_ring).
 * Ranks in one process (manager/local_ranks) meet over socketpairs
 * (fromFds); separate processes by TCP rendezvous. The engine is
 * transport-agnostic: frame encode/decode, the RoundDone barrier and
 * peer-loss degradation all live here, above the bridge, so results
 * are byte-identical for any transport mix (pinned by the parity
 * matrix's rank and transport cells). The transport carries tokens
 * only: each rank writes its own telemetry dumps, so no stats ever
 * cross it.
 *
 * Transport selection (--shard-transport): each rendezvous Hello
 * carries the sender's preference plus a host token; a pair on one
 * host negotiates shm under `auto`, pairs on different hosts fall
 * back to TCP — one mesh can mix fabrics per peer. Explicit `shm`
 * across hosts is a configuration error (fatal).
 *
 * Round discipline is exactly the fabric's: after every round's
 * commits, the fabric calls onRoundComplete(), which flushes the
 * round's outbound batches plus a RoundDone marker to every peer, then
 * blocks until every peer's RoundDone for the same round has arrived,
 * pushing the received batches into their RX channels along the way.
 * The barrier probes every pending peer, then parks on the first one
 * still pending (PeerLink::waitReadable) for a short slice and probes
 * again — one slow peer delays only itself, the others' frames drain
 * between parks, and stallNs is attributed to the peer that actually
 * kept the barrier open. Because the fabric quantum never exceeds any
 * link latency, round R's remote productions are not consumed before
 * round R+1 — no shard can run ahead. All transport work happens on
 * the fabric's driving thread, so the simulation stays byte-identical to the
 * single-process run for any shard count (tested in tests/dist).
 *
 * Peer death: a vanished peer (EOF, connection reset, or a barrier
 * wait exceeding recvTimeoutMs) is converted into graceful
 * degradation, not a hang — the transport marks the peer dead, closes
 * its link (which reclaims shm segments), fires the loss callback
 * (the Cluster records a PeerShardLost fault in its HealthMonitor),
 * and from then on synthesizes empty token batches for the dead
 * peer's links, exactly the degraded-host model the fabric already
 * applies to down endpoints. With ShardSpec::failFast the loss is
 * fatal() instead, so CI death tests stay bounded.
 *
 * Configuration: the transport takes the ShardSpec that the Cluster
 * holds as ClusterConfig::shard, unchanged. It reads rank, shards,
 * the rendezvous address, both timeouts, failFast, the transport
 * preference and the ring size; the owner map is the ShardPlan's.
 */

#ifndef FIRESIM_NET_REMOTE_SHARD_TRANSPORT_HH
#define FIRESIM_NET_REMOTE_SHARD_TRANSPORT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "net/remote/peer_link.hh"
#include "net/remote/socket.hh"
#include "net/remote/wire.hh"

namespace firesim
{

/**
 * How (and whether) to split a Cluster across shard processes: the
 * manager's ShardPlan reads shards, rank and owners, and the transport
 * reads the rest. It is the one home of every shard setting —
 * ClusterConfig::shard holds it, and Cluster hands it to the transport
 * as is.
 */
struct ShardSpec
{
    uint32_t shards = 1; //!< 1 = ordinary single-process simulation
    uint32_t rank = 0;   //!< this process's shard index
    /** Rendezvous address (rank r listens on basePort + r). */
    std::string connectHost = "127.0.0.1";
    uint16_t basePort = 0;
    /** Max wall-clock to wait on one peer in a round barrier. */
    int recvTimeoutMs = 10000;
    /** Wall-clock cap on the whole rendezvous connect loop
     *  (--shard-connect-timeout); 0 = bounded only by
     *  tcpConnectRetry's attempt count. */
    int connectTimeoutMs = 0;
    /** Abort instead of degrading when a peer shard is lost. */
    bool failFast = false;
    /** Cross-shard fabric (--shard-transport): Auto negotiates shm
     *  for same-host peers and TCP across hosts; Shm demands the
     *  shared-memory rings (fatal across hosts); Tcp never upgrades. */
    TransportKind transport = TransportKind::Auto;
    /** Per-direction shm ring capacity in bytes (rounded up to a
     *  power of two); must be symmetric across the mesh. */
    size_t shmRingBytes = 1 << 20;
    /** Explicit server->rank map (manager/shard.hh); when non-empty
     *  it overrides the block placement. Every launching process must
     *  pass the same map (checked via planHash at rendezvous). */
    std::vector<uint32_t> owners;
};

class ShardTransport : public RemoteRoundHook
{
  public:
    /** Per-peer transport accounting (host-side only, never part of
     *  the deterministic simulation surface). */
    struct PeerStats
    {
        uint64_t bytesTx = 0;
        uint64_t bytesRx = 0;
        uint64_t batchesTx = 0;
        uint64_t batchesRx = 0;
        uint64_t roundsBarriered = 0;
        uint64_t stallNs = 0; //!< wall-clock spent waiting in barriers
        /** Peer's self-reported round-latency EWMA (ns), from its most
         *  recent RoundDone — the straggler detector's input. */
        uint64_t peerRoundNs = 0;
        bool alive = true;
    };

    /** Fired once, on the driving thread, when a peer shard is lost. */
    using PeerLossFn =
        std::function<void(uint32_t peer_rank, uint64_t round,
                           Cycles cycle)>;

    /**
     * TCP rendezvous: listen on host:basePort+rank, connect to every
     * lower rank (bounded-backoff retry), accept every higher rank,
     * and exchange Hello frames carrying (version, rank, shards,
     * @p plan_hash, transport preference, host token). The hash is
     * the ShardPlan's planHash — topology, timing config, shard
     * count, *and* the server->rank owner map — so two processes
     * launched with different topologies or diverging shard plans are
     * both fatal(). Same-host pairs then upgrade the connection to a
     * shared-memory ring per spec.transport; the TCP socket stays
     * open as the shm control channel and death watch. Setup failures
     * are fatal(); this never returns null.
     */
    static std::unique_ptr<ShardTransport>
    rendezvousTcp(const ShardSpec &spec, uint64_t plan_hash);

    /**
     * Pre-connected fast path: @p peers carries (peer_rank, fd) pairs,
     * typically AF_UNIX socketpair halves for same-host shards. Under
     * spec.transport Shm each fd becomes the control socket of a
     * shared-memory ring pair (lower rank creates); otherwise the fd
     * is the byte stream itself. Hello is sent immediately and the
     * peer's Hello validated lazily on first receive, so two
     * transports sharing a socketpair can be constructed in any order
     * on one thread without deadlock. A peer that has already closed
     * its end is no error here: the first barrier finds it lost.
     */
    static std::unique_ptr<ShardTransport>
    fromFds(const ShardSpec &spec,
            std::vector<std::pair<uint32_t, SocketFd>> peers,
            uint64_t plan_hash);

    ~ShardTransport() override;

    /** Incoming direction: batches for @p link_id arrive from
     *  @p peer_rank and are pushed into @p chan. */
    void bindRxChannel(uint32_t link_id, uint32_t peer_rank,
                       TokenChannel *chan);

    /** Outgoing direction: batches the fabric produces for @p link_id
     *  are shipped to @p peer_rank. */
    void bindTxLink(uint32_t link_id, uint32_t peer_rank);

    void onPeerLoss(PeerLossFn fn) { lossFn = std::move(fn); }

    // ---- observability hooks (net cannot depend on telemetry, so the
    // Cluster bridges these as callbacks) ------------------------------

    /** Reports this rank's round-latency EWMA (ns), carried in every
     *  outgoing RoundDone for cross-shard straggler detection. */
    using RoundLatencyFn = std::function<uint64_t()>;
    void setRoundLatencyProvider(RoundLatencyFn fn)
    {
        latencyFn = std::move(fn);
    }

    /**
     * Runs immediately before the failFast fatal() on peer loss (after
     * the loss callback), so telemetry can flush — a failFast abort
     * must never leave empty dumps behind.
     */
    using FatalFlushFn = std::function<void()>;
    void setFatalFlushHook(FatalFlushFn fn)
    {
        fatalFlushFn = std::move(fn);
    }

    /** Orderly shutdown: Bye to every live peer, close links (which
     *  reclaims shm segments). Idempotent; also run by the dtor. */
    void shutdown();

    uint32_t rank() const { return spec.rank; }
    uint32_t shards() const { return spec.shards; }

    /** Ascending rank order; parallel to peerStatsAt()/peerLinkAt(). */
    const std::vector<uint32_t> &peerRanks() const { return ranks; }
    const PeerStats &peerStatsAt(size_t idx) const
    {
        return peers.at(idx).stats;
    }

    /** The bridge carrying traffic to peer @p idx (never null). */
    const PeerLink *peerLinkAt(size_t idx) const
    {
        return peers.at(idx).link.get();
    }

    size_t livePeers() const;
    bool anyPeerLost() const { return lostPeers != 0; }

    // ---- RemoteRoundHook ---------------------------------------------
    void onTxBatch(uint32_t link_id, const TokenBatch &batch) override;
    void onRoundComplete(uint64_t round, Cycles round_start) override;

  private:
    struct Peer
    {
        uint32_t rank = 0;
        std::unique_ptr<PeerLink> link;
        std::string txBuf; //!< this round's encoded outbound frames
        std::string rxBuf; //!< unparsed inbound bytes
        size_t rxPos = 0;  //!< consumed offset into rxBuf (compacted
                           //!< lazily — no per-frame memmove)
        bool helloSeen = false;
        bool roundDone = false; //!< RoundDone for the current round
        PeerStats stats;
    };

    struct RxBinding
    {
        uint32_t linkId = 0;
        uint32_t peerIdx = 0;
        TokenChannel *chan = nullptr;
        Cycles nextStart = 0;  //!< production cycle of the next push
        uint64_t pushed = 0;   //!< batches pushed (received + synthetic)
    };

    struct TxBinding
    {
        uint32_t linkId = 0;
        uint32_t peerIdx = 0;
    };

    ShardTransport(const ShardSpec &spec, uint64_t plan_hash);

    size_t peerIndexOf(uint32_t peer_rank) const;
    void validateHello(Peer &peer, const Frame &frame) const;

    /** Send @p peer its Hello through the link (lazy validation
     *  path: fromFds). A peer already gone is left for the first
     *  barrier to find lost. */
    void sendHello(Peer &peer);

    /**
     * Write all of @p buf through the link. A momentarily-full fabric
     * (shm ring with a slow consumer) is ridden out by draining our
     * own inbound direction — the peer may be blocked pushing to us —
     * and backing off, bounded by recvTimeoutMs. False: peer gone.
     */
    bool sendAllLink(Peer &peer, const std::string &buf);

    /** Pull every available inbound byte into peer.rxBuf. Bytes read,
     *  or -1 when the peer is gone with nothing buffered. */
    long pumpRx(Peer &peer);

    /** Reclaim consumed rxBuf bytes when cheap (fully drained) or
     *  overdue (large consumed prefix). */
    void compactRx(Peer &peer);

    /** Parse every complete frame buffered for @p peer; returns when
     *  the buffer ends mid-frame or RoundDone(@p round) was seen. */
    void drainFrames(Peer &peer, uint64_t round, Cycles round_start);

    /** Convert @p peer into a dead peer (or fatal() when failFast). */
    void peerLost(Peer &peer, uint64_t round, Cycles cycle,
                  const char *why);

    /** Push empty batches for dead peers' links missing round data. */
    void synthesizeMissing(uint64_t round);

    ShardSpec spec;
    /** ShardPlan::planHash carried in Hello (wire field topoHash). */
    uint64_t planHash;
    std::vector<Peer> peers;   //!< ascending rank
    std::vector<uint32_t> ranks;
    std::vector<RxBinding> rxBindings;
    std::vector<TxBinding> txBindings;
    PeerLossFn lossFn;
    RoundLatencyFn latencyFn;
    FatalFlushFn fatalFlushFn;
    size_t lostPeers = 0;
    bool shutdownDone = false;
};

} // namespace firesim

#endif // FIRESIM_NET_REMOTE_SHARD_TRANSPORT_HH
