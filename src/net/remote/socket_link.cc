#include "net/remote/socket_link.hh"

#include <cerrno>
#include <sys/socket.h>

namespace firesim
{

namespace
{

class SocketLink : public PeerLink
{
  public:
    SocketLink(SocketFd sock, TransportKind kind, std::string describe)
        : sock_(std::move(sock)), kind_(kind), desc_(std::move(describe))
    {}

    ~SocketLink() override { close(); }

    long
    sendSome(const void *buf, size_t len) override
    {
        // Blocking send: the kernel's socket buffer is the flow
        // control. Short writes are fine — the engine loops.
        if (!sock_.valid())
            return -1;
        for (;;) {
            ssize_t n = ::send(sock_.fd(), buf, len, MSG_NOSIGNAL);
            if (n >= 0)
                return static_cast<long>(n);
            if (errno == EINTR)
                continue;
            return -1; // EPIPE / ECONNRESET: peer gone
        }
    }

    long
    recvSome(void *buf, size_t len) override
    {
        if (!sock_.valid())
            return -1;
        for (;;) {
            ssize_t n = ::recv(sock_.fd(), buf, len, MSG_DONTWAIT);
            if (n > 0)
                return static_cast<long>(n);
            if (n == 0)
                return -1; // orderly EOF
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return 0;
            return -1;
        }
    }

    bool
    waitReadable(std::chrono::steady_clock::time_point deadline) override
    {
        // An invalid socket is readable: recvSome reports the -1.
        return !sock_.valid() || pollInUntil(sock_.fd(), deadline);
    }

    void close() override { sock_.close(); }
    bool isOpen() const override { return sock_.valid(); }
    TransportKind kind() const override { return kind_; }
    std::string describe() const override { return desc_; }

  private:
    SocketFd sock_;
    TransportKind kind_;
    std::string desc_;
};

} // namespace

std::unique_ptr<PeerLink>
makeSocketLink(SocketFd sock, TransportKind kind, std::string describe)
{
    return std::make_unique<SocketLink>(std::move(sock), kind,
                                        std::move(describe));
}

} // namespace firesim
