/**
 * @file
 * Lock-free shared-memory fabric for same-host shards (paper Section
 * III-B: FireSim carries token channels over shared memory when the
 * endpoints share a host — the kernel round-trip that dominates a
 * socket round barrier disappears).
 *
 * Layout: one POSIX shm segment per peer pair holding two SPSC byte
 * rings, one per direction. Each ring is a power-of-two byte buffer
 * with monotonically increasing head/tail indices on separate cache
 * lines; the producer is the only head writer, the consumer the only
 * tail writer, so a release-store on the producer side paired with an
 * acquire-load on the consumer side is the entire data
 * synchronization story (TSan-clean by construction, pinned by
 * tests/dist).
 *
 * Waiting: a consumer with nothing to read spins for about 100 us (a
 * same-host peer is usually microseconds behind), then parks with
 * FUTEX_WAIT on the ring's doorbell word. The producer bumps the
 * doorbell after every push and on close, and makes the FUTEX_WAKE
 * system call only when the consumer has registered as a sleeper, so
 * a round whose reader is already spinning costs no kernel entry.
 *
 * Handshake: the lower rank (creator) shm_opens a uniquely named
 * segment, initializes it, and sends {magic, version, ringBytes, name}
 * over the control socket the pair already shares. The higher rank
 * (opener) attaches lazily on first use, then immediately shm_unlinks
 * the name — the mappings persist, and an unlinked segment cannot go
 * stale no matter how either side dies. The creator also unlinks in
 * close() (ENOENT is fine) so a SIGKILL'd opener cannot leak the name.
 *
 * The control socket stays open for the life of the link as a death
 * watch: a peer that dies without closing (SIGKILL) never rings the
 * doorbell, but its kernel closes its socket end. A wait checks the
 * control fd when its deadline passes, so callers park in bounded
 * slices (same recvTimeoutMs semantics as the socket path).
 */

#ifndef FIRESIM_NET_REMOTE_SHM_RING_HH
#define FIRESIM_NET_REMOTE_SHM_RING_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/remote/peer_link.hh"
#include "net/remote/socket.hh"

namespace firesim
{

/** Control words of one SPSC ring: the producer's and the consumer's
 *  each on their own cache line, so the two sides never false-share.
 *  Indices are monotonic; the ring position is index & (capacity - 1).
 *  All words start at zero. */
struct ShmRingCtl
{
    alignas(64) std::atomic<uint64_t> head; //!< producer-owned
    std::atomic<uint32_t> doorbell; //!< bumped after each push and on close
    std::atomic<uint32_t> closed;   //!< 1 once the producer closed
    alignas(64) std::atomic<uint64_t> tail; //!< consumer-owned
    std::atomic<uint32_t> sleepers; //!< consumers parked on the doorbell
};

/**
 * A view over one SPSC byte ring (control words + data may live in a
 * shared mapping or, for the unit tests, plain heap memory). Exactly
 * one thread/process may push and exactly one may pop.
 */
class ShmRing
{
  public:
    ShmRing() = default;

    /** @p capacity must be a power of two. */
    ShmRing(ShmRingCtl *ctl, char *data, size_t capacity)
        : ctl_(ctl), data_(data), cap_(capacity), mask_(capacity - 1)
    {}

    bool valid() const { return ctl_ != nullptr; }
    size_t capacity() const { return cap_; }

    /** Producer: copy in up to @p len bytes and ring the doorbell;
     *  returns bytes accepted (0 when full — never blocks). */
    size_t push(const void *buf, size_t len);

    /** Producer: mark the ring finished and ring the doorbell. */
    void close();

    /** Consumer: the producer called close(). Bytes it pushed before
     *  may still be readable. */
    bool producerClosed() const;

    /**
     * Consumer: wait until bytes are readable or the producer closed,
     * or until @p deadline passes; true unless the deadline passed.
     * Spins about 100 us, then parks on the doorbell futex.
     */
    bool waitReadable(std::chrono::steady_clock::time_point deadline);

    /** Consumer: copy out up to @p len bytes; returns bytes taken
     *  (0 when empty — never blocks). */
    size_t pop(void *buf, size_t len);

    /** Consumer-side: bytes available to pop right now. */
    size_t readableBytes() const;

    /** Producer-side: bytes push would accept right now. */
    size_t freeBytes() const;

  private:
    /** Wake the consumer if it registered as a sleeper. */
    void ring();

    ShmRingCtl *ctl_ = nullptr;
    char *data_ = nullptr;
    size_t cap_ = 0;
    size_t mask_ = 0;
};

/** Round @p bytes up to the next power of two (min 4 KiB). */
size_t shmRingCapacity(size_t bytes);

/**
 * Build the shared-memory PeerLink over an established control
 * socket. @p creator selects the handshake role: the creator (lower
 * rank) makes and announces the segment, the opener attaches lazily —
 * so both ends are constructible on one thread in any order, exactly
 * like the pre-connected-fd socket path. @p ring_bytes is the
 * per-direction capacity (rounded up to a power of two); @p tag lands
 * in the segment name for debuggability. @p carry is announcement
 * bytes the caller already read off the control socket (the TCP
 * rendezvous slurps greedily behind the Hello) — opener side only.
 */
std::unique_ptr<PeerLink> makeShmLink(SocketFd control, bool creator,
                                      size_t ring_bytes,
                                      const std::string &tag,
                                      std::string carry = {});

} // namespace firesim

#endif // FIRESIM_NET_REMOTE_SHM_RING_HH
