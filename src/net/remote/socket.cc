#include "net/remote/socket.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/logging.hh"

namespace firesim
{

namespace
{

sockaddr_in
resolveV4(const std::string &host, uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    // Numeric dotted-quad only: shard rendezvous addresses come from
    // --shard-connect and are host addresses, not names. Keeping
    // getaddrinfo out of the hot path also keeps this usable between
    // fork() and exec() in the death tests.
    if (host.empty() || host == "*") {
        addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        fatal("shard transport: '%s' is not a numeric IPv4 address",
              host.c_str());
    }
    return addr;
}

} // namespace

void
SocketFd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

SocketFd
tcpListen(const std::string &host, uint16_t port, int backlog)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("shard transport: socket(): %s", std::strerror(errno));
    SocketFd sock(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = resolveV4(host, port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0)
        fatal("shard transport: bind %s:%u: %s", host.c_str(), port,
              std::strerror(errno));
    if (::listen(fd, backlog) < 0)
        fatal("shard transport: listen: %s", std::strerror(errno));
    return sock;
}

uint16_t
boundPort(const SocketFd &listener)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.fd(), reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        fatal("shard transport: getsockname: %s", std::strerror(errno));
    return ntohs(addr.sin_port);
}

SocketFd
tcpAccept(const SocketFd &listener, int timeout_ms)
{
    int ready = pollIn(listener.fd(), timeout_ms);
    if (ready <= 0) {
        if (ready < 0)
            fatal("shard transport: accept poll failed");
        return SocketFd();
    }
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0)
        fatal("shard transport: accept: %s", std::strerror(errno));
    setNoDelay(fd);
    return SocketFd(fd);
}

SocketFd
tcpConnectRetry(const std::string &host, uint16_t port,
                int overall_timeout_ms)
{
    constexpr int kAttempts = 100;
    constexpr int kBackoffCapMs = 500;
    using Clock = std::chrono::steady_clock;
    sockaddr_in addr = resolveV4(host, port);
    int delay = 10; // ms, doubling up to kBackoffCapMs
    Clock::time_point deadline =
        overall_timeout_ms > 0
            ? Clock::now() + std::chrono::milliseconds(overall_timeout_ms)
            : Clock::time_point::max();
    // Deterministic jitter (splitmix-style hash of host/port/attempt):
    // keeps retries reproducible per rank while decorrelating the N
    // shards that all lost the race to one still-booting listener.
    uint64_t jseed = port;
    for (char c : host)
        jseed = jseed * 131 + static_cast<unsigned char>(c);
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        if (attempt > 0) {
            uint64_t z = jseed + 0x9e3779b97f4a7c15ull * attempt;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            int jitter =
                static_cast<int>((z >> 33) % (delay / 4 + 1));
            auto sleep_ms = std::chrono::milliseconds(delay + jitter);
            if (overall_timeout_ms > 0) {
                auto left = deadline - Clock::now();
                if (left <= Clock::duration::zero())
                    fatal("shard transport: connect to %s:%u timed out "
                          "after %d ms (%d attempts made)",
                          host.c_str(), port, overall_timeout_ms,
                          attempt);
                sleep_ms = std::min(
                    sleep_ms,
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        left) +
                        std::chrono::milliseconds(1));
            }
            std::this_thread::sleep_for(sleep_ms);
            delay = std::min(delay * 2, kBackoffCapMs);
        }
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("shard transport: socket(): %s", std::strerror(errno));
        int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr));
        if (rc < 0 && errno == EINTR) {
            // Interrupted connect may still complete asynchronously;
            // wait for writability and check SO_ERROR instead of
            // tearing it down and burning an attempt.
            pollfd pfd{fd, POLLOUT, 0};
            while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
            }
            int soerr = 0;
            socklen_t slen = sizeof(soerr);
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) ==
                    0 &&
                soerr == 0)
                rc = 0;
        }
        if (rc == 0) {
            setNoDelay(fd);
            return SocketFd(fd);
        }
        ::close(fd);
        if (overall_timeout_ms > 0 && Clock::now() >= deadline)
            fatal("shard transport: connect to %s:%u timed out after "
                  "%d ms (%d attempts made)",
                  host.c_str(), port, overall_timeout_ms, attempt + 1);
    }
    fatal("shard transport: connect to %s:%u failed after %d attempts "
          "(bounded backoff exhausted)",
          host.c_str(), port, kAttempts);
    return SocketFd(); // unreachable
}

std::pair<SocketFd, SocketFd>
localSocketPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0)
        fatal("shard transport: socketpair: %s", std::strerror(errno));
    return {SocketFd(fds[0]), SocketFd(fds[1])};
}

void
setNoDelay(int fd)
{
    int one = 1;
    // Best effort: AF_UNIX sockets reject it, which is fine.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool
sendAll(int fd, const void *buf, size_t len)
{
    const char *p = static_cast<const char *>(buf);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

int
pollIn(int fd, int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    // Restart after EINTR with the *remaining* time, not the full
    // timeout — otherwise a steady signal stream (profiler SIGPROFs)
    // pushes the deadline out forever.
    Clock::time_point deadline =
        timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(
                                             timeout_ms)
                        : Clock::time_point::max();
    pollfd pfd{fd, POLLIN, 0};
    int wait = timeout_ms;
    while (true) {
        int r = ::poll(&pfd, 1, wait);
        if (r < 0) {
            if (errno == EINTR) {
                if (timeout_ms >= 0) {
                    auto left = deadline - Clock::now();
                    if (left <= Clock::duration::zero())
                        return 0;
                    wait = static_cast<int>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(left)
                            .count() +
                        1);
                }
                continue;
            }
            return -1;
        }
        if (r == 0)
            return 0;
        // POLLHUP/POLLERR with pending bytes still reads; recvSome
        // reports the final EOF. Report ready so the caller drains.
        return 1;
    }
}

bool
pollInUntil(int fd, std::chrono::steady_clock::time_point deadline)
{
    int64_t left = std::chrono::ceil<std::chrono::milliseconds>(
                       deadline - std::chrono::steady_clock::now())
                       .count();
    return pollIn(fd, static_cast<int>(std::clamp<int64_t>(
                          left, 0, INT32_MAX))) != 0;
}

long
recvSome(int fd, void *buf, size_t len)
{
    while (true) {
        ssize_t n = ::recv(fd, buf, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return static_cast<long>(n);
    }
}

} // namespace firesim
