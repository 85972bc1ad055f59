/**
 * @file
 * The pluggable bridge layer of the distributed token fabric (paper
 * Section III-B: token channels are carried over "whatever fabric the
 * host platform offers" — PCIe, shared memory, or the network).
 *
 * A PeerLink is a narrow, transport-agnostic byte bridge to one peer
 * shard: send bytes, receive bytes, wait for bytes, close, describe.
 * The round engine (shard_transport) speaks only this interface;
 * everything fabric-specific lives in the implementations:
 *
 *  - SocketLink (socket_link.hh): the TCP / AF_UNIX byte stream.
 *  - ShmLink    (shm_ring.hh): a lock-free SPSC shared-memory ring
 *               pair for same-host shards — no kernel round trip on
 *               the round barrier unless a reader has to park.
 *
 * In-process ranks (manager/local_ranks) use the same two: a
 * socketpair, upgraded to rings under --shard-transport=shm. Because
 * frame encode/decode, the RoundDone barrier and peer-loss
 * degradation all live above this interface, simulation results are
 * byte-identical for every link choice — the bridge moves the same
 * bytes, only the host mechanics differ (pinned by the parity
 * matrix's Ranks2 and Shm cells).
 */

#ifndef FIRESIM_NET_REMOTE_PEER_LINK_HH
#define FIRESIM_NET_REMOTE_PEER_LINK_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace firesim
{

/** Which fabric carries a cross-shard link (--shard-transport). */
enum class TransportKind : uint8_t
{
    Auto = 0, //!< shm for same-host peers, tcp otherwise
    Shm = 1,  //!< shared-memory rings; peers must share a host
    Tcp = 2,  //!< TCP, the cross-host fabric
    Unix = 3, //!< AF_UNIX stream (pre-connected fds / socketpair)
};

/** Canonical knob spelling ("auto", "shm", ...). */
const char *transportKindName(TransportKind kind);

/** Parse a --shard-transport value (auto, shm or tcp); false on
 *  anything else. Strict like the other knob parsers: exact lowercase
 *  names only. */
bool parseTransportKind(const char *text, TransportKind &out);

/** A stable hash identifying this host (hostname FNV-1a), carried in
 *  Hello so the rendezvous can tell same-host peers (shm candidates)
 *  from remote ones. */
uint64_t localHostToken();

/** Host-side counters of a shared-memory link, surfaced under the
 *  stripped cluster.shard.* telemetry subtree. */
struct ShmLinkStats
{
    uint64_t ringBytes = 0;    //!< per-direction ring capacity
    uint64_t txRingFullWaits = 0; //!< sends that found the ring full
    uint64_t bytesViaRing = 0; //!< payload bytes pushed through the ring
};

/**
 * One byte-stream bridge to one peer shard. All calls happen on the
 * fabric's driving thread; implementations need no internal locking
 * against their own caller (the shared ring is SPSC by construction).
 *
 * Error discipline matches the socket layer: setup problems are
 * fatal() inside the factories, runtime problems (peer gone, EOF)
 * surface as -1 so the round engine can degrade gracefully.
 */
class PeerLink
{
  public:
    virtual ~PeerLink() = default;

    /**
     * Offer up to @p len bytes. Returns how many were accepted
     * (possibly 0 when the fabric is momentarily full — retry after
     * draining the receive direction), or -1 when the peer is gone.
     */
    virtual long sendSome(const void *buf, size_t len) = 0;

    /**
     * Take up to @p len received bytes. >0 bytes read, 0 nothing
     * available right now, -1 peer gone with nothing left to read.
     */
    virtual long recvSome(void *buf, size_t len) = 0;

    /**
     * Block until recvSome would return bytes (or the peer-gone -1),
     * or until @p deadline passes; true when readable. A deadline in
     * the past makes this a non-blocking probe. Each fabric parks its
     * own way: sockets poll their fd, shm rings spin briefly and then
     * sleep on a futex doorbell. A caller waiting on several peers
     * keeps each park short so it can probe the others.
     */
    virtual bool waitReadable(std::chrono::steady_clock::time_point
                                  deadline) = 0;

    /** Close now (idempotent; also run by the destructor). Releases
     *  host resources — fds, mappings, shm names. */
    virtual void close() = 0;

    virtual bool isOpen() const = 0;

    virtual TransportKind kind() const = 0;

    /** One-line human description ("tcp 127.0.0.1:7000",
     *  "shm ring 2x1MiB /firesim-shm-..."). */
    virtual std::string describe() const = 0;

    /** Shared-memory host counters, or nullptr for other fabrics. */
    virtual const ShmLinkStats *shmStats() const { return nullptr; }
};

} // namespace firesim

#endif // FIRESIM_NET_REMOTE_PEER_LINK_HH
