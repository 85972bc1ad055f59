/**
 * @file
 * Thin POSIX socket layer for the distributed token fabric
 * (net/remote). Everything the shard transport needs and nothing more:
 * an RAII fd, TCP listen/accept/connect with bounded-backoff retry, an
 * AF_UNIX socketpair fast path for same-host shards, and full-buffer
 * send/recv helpers with poll-based timeouts.
 *
 * Error discipline: setup failures (cannot bind, connect retries
 * exhausted) are fatal() — a shard that cannot reach its peers can
 * never join the round barrier, so aborting with a clear message beats
 * hanging. Runtime failures (peer reset, EOF, poll timeout) are
 * returned to the caller: the transport converts them into peer-death
 * events and degrades gracefully instead of aborting the survivors.
 */

#ifndef FIRESIM_NET_REMOTE_SOCKET_HH
#define FIRESIM_NET_REMOTE_SOCKET_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace firesim
{

/** RAII socket file descriptor (move-only, closes on destruction). */
class SocketFd
{
  public:
    SocketFd() = default;
    explicit SocketFd(int fd) : fd_(fd) {}
    ~SocketFd() { close(); }

    SocketFd(SocketFd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    SocketFd &
    operator=(SocketFd &&o) noexcept
    {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    SocketFd(const SocketFd &) = delete;
    SocketFd &operator=(const SocketFd &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close now (idempotent). */
    void close();

    /** Give up ownership of the raw fd. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

  private:
    int fd_ = -1;
};

/**
 * Listen on @p host:@p port (TCP, SO_REUSEADDR). @p port 0 binds an
 * ephemeral port — read it back with boundPort(). fatal() on failure.
 */
SocketFd tcpListen(const std::string &host, uint16_t port,
                   int backlog = 8);

/** The local port @p listener is bound to. */
uint16_t boundPort(const SocketFd &listener);

/**
 * Accept one connection, waiting at most @p timeout_ms (-1 = forever).
 * Returns an invalid SocketFd on timeout; fatal() on a socket error.
 */
SocketFd tcpAccept(const SocketFd &listener, int timeout_ms);

/**
 * Connect to @p host:@p port, retrying up to 100 times with
 * exponential backoff from 10 ms (doubling, capped at 500 ms) — shard
 * processes race to their rendezvous, so a refused connection usually
 * means the listener is not up *yet*. Each
 * sleep gets deterministic per-attempt jitter (up to 25%, seeded from
 * host/port/attempt) so N shards hammering one listener don't retry in
 * lock-step. @p overall_timeout_ms > 0 adds a wall-clock cap on the
 * whole retry loop (--shard-connect-timeout); 0 leaves it purely
 * attempt-bounded. fatal() when either bound is exhausted — the
 * message says which (never hangs).
 */
SocketFd tcpConnectRetry(const std::string &host, uint16_t port,
                         int overall_timeout_ms = 0);

/**
 * Same-host fast path: a connected AF_UNIX stream pair (no TCP stack,
 * no ports). runLocalRanks (manager/local_ranks) joins in-process
 * ranks with these; a forked rank process can inherit one half.
 */
std::pair<SocketFd, SocketFd> localSocketPair();

/** Disable Nagle: token-batch frames must not wait for coalescing. */
void setNoDelay(int fd);

/**
 * Write all @p len bytes of @p buf (handles short writes, EINTR, and
 * SIGPIPE suppression). False when the peer is gone.
 */
bool sendAll(int fd, const void *buf, size_t len);

/**
 * Wait until @p fd is readable: 1 ready, 0 timeout, -1 error/hangup
 * with nothing left to read. @p timeout_ms -1 waits forever. EINTR
 * restarts against the *remaining* time (a signal storm cannot extend
 * the deadline).
 */
int pollIn(int fd, int timeout_ms);

/** pollIn() until @p deadline (rounded up to the next millisecond, so
 *  it never returns early; a past deadline polls once): true when
 *  @p fd is readable or hung up. */
bool pollInUntil(int fd, std::chrono::steady_clock::time_point deadline);

/**
 * One recv() of at most @p len bytes. >0 bytes read, 0 orderly EOF,
 * -1 error (EINTR retried internally; would-block treated as error —
 * callers gate on pollIn).
 */
long recvSome(int fd, void *buf, size_t len);

} // namespace firesim

#endif // FIRESIM_NET_REMOTE_SOCKET_HH
