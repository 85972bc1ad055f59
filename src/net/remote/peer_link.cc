#include "net/remote/peer_link.hh"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <unistd.h>

#include "base/logging.hh"

namespace firesim
{

const char *
transportKindName(TransportKind kind)
{
    switch (kind) {
      case TransportKind::Auto:
        return "auto";
      case TransportKind::Shm:
        return "shm";
      case TransportKind::Tcp:
        return "tcp";
      case TransportKind::Unix:
        return "unix";
      case TransportKind::Loopback:
        return "loopback";
    }
    return "?";
}

bool
parseTransportKind(const char *text, TransportKind &out)
{
    if (!text)
        return false;
    std::string s = text;
    if (s == "auto")
        out = TransportKind::Auto;
    else if (s == "shm")
        out = TransportKind::Shm;
    else if (s == "tcp")
        out = TransportKind::Tcp;
    else
        return false;
    return true;
}

uint64_t
localHostToken()
{
    char name[256] = {0};
    ::gethostname(name, sizeof(name) - 1);
    uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const char *p = name; *p; ++p) {
        h ^= static_cast<uint8_t>(*p);
        h *= 1099511628211ULL;
    }
    return h;
}

namespace
{

/** One direction of the loopback pair: a byte queue with its own
 *  mutex, a closed flag set by the producer's close(), and a condvar
 *  the producer signals after each push and on close. */
struct LoopbackPipe
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<char> bytes;
    bool closed = false;
};

class LoopbackLink : public PeerLink
{
  public:
    LoopbackLink(std::shared_ptr<LoopbackPipe> tx,
                 std::shared_ptr<LoopbackPipe> rx)
        : tx_(std::move(tx)), rx_(std::move(rx))
    {}

    ~LoopbackLink() override { close(); }

    long
    sendSome(const void *buf, size_t len) override
    {
        {
            std::lock_guard<std::mutex> lk(tx_->mu);
            if (closed_ || tx_->closed)
                return -1;
            const char *p = static_cast<const char *>(buf);
            tx_->bytes.insert(tx_->bytes.end(), p, p + len);
        }
        tx_->cv.notify_all();
        return static_cast<long>(len);
    }

    long
    recvSome(void *buf, size_t len) override
    {
        std::lock_guard<std::mutex> lk(rx_->mu);
        size_t n = std::min(len, rx_->bytes.size());
        if (n == 0)
            return (closed_ || rx_->closed) ? -1 : 0;
        char *p = static_cast<char *>(buf);
        for (size_t i = 0; i < n; ++i) {
            p[i] = rx_->bytes.front();
            rx_->bytes.pop_front();
        }
        return static_cast<long>(n);
    }

    bool
    waitReadable(std::chrono::steady_clock::time_point deadline) override
    {
        std::unique_lock<std::mutex> lk(rx_->mu);
        return rx_->cv.wait_until(lk, deadline, [this] {
            return !rx_->bytes.empty() || rx_->closed || closed_;
        });
    }

    void
    close() override
    {
        if (closed_)
            return;
        closed_ = true;
        // The peer reads its RX (our TX) as gone once drained.
        {
            std::lock_guard<std::mutex> lk(tx_->mu);
            tx_->closed = true;
        }
        tx_->cv.notify_all();
    }

    bool isOpen() const override { return !closed_; }
    TransportKind kind() const override { return TransportKind::Loopback; }

    std::string
    describe() const override
    {
        return "loopback (in-process queue pair)";
    }

  private:
    std::shared_ptr<LoopbackPipe> tx_;
    std::shared_ptr<LoopbackPipe> rx_;
    bool closed_ = false;
};

} // namespace

std::pair<std::unique_ptr<PeerLink>, std::unique_ptr<PeerLink>>
loopbackLinkPair()
{
    auto a2b = std::make_shared<LoopbackPipe>();
    auto b2a = std::make_shared<LoopbackPipe>();
    return {std::make_unique<LoopbackLink>(a2b, b2a),
            std::make_unique<LoopbackLink>(b2a, a2b)};
}

} // namespace firesim
