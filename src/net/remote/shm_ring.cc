#include "net/remote/shm_ring.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <thread>
#include <unistd.h>

#include "base/logging.hh"

namespace firesim
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

/** How long a reader spins on an empty ring before it parks. A
 *  same-host peer's push usually lands within a few microseconds; a
 *  futex sleep and wake costs tens. */
constexpr auto kSpin = std::chrono::microseconds(100);

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "the doorbell must be a plain 32-bit futex word");

/** Sleep while @p word still reads @p seen, at most @p timeout. Not
 *  FUTEX_PRIVATE: the two ends map the segment at different
 *  addresses, often in different processes. EINTR, EAGAIN (the word
 *  moved) and ETIMEDOUT all just return. */
void
futexWait(std::atomic<uint32_t> &word, uint32_t seen,
          std::chrono::nanoseconds timeout)
{
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
    ::syscall(SYS_futex, reinterpret_cast<uint32_t *>(&word), FUTEX_WAIT,
              seen, &ts, nullptr, 0);
}

void
futexWakeAll(std::atomic<uint32_t> &word)
{
    ::syscall(SYS_futex, reinterpret_cast<uint32_t *>(&word), FUTEX_WAKE,
              INT_MAX, nullptr, nullptr, 0);
}

} // namespace

size_t
ShmRing::push(const void *buf, size_t len)
{
    uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    uint64_t tail = ctl_->tail.load(std::memory_order_acquire);
    size_t free = cap_ - static_cast<size_t>(head - tail);
    size_t n = std::min(len, free);
    if (n == 0)
        return 0;
    size_t at = static_cast<size_t>(head) & mask_;
    size_t first = std::min(n, cap_ - at);
    std::memcpy(data_ + at, buf, first);
    if (n > first)
        std::memcpy(data_, static_cast<const char *>(buf) + first,
                    n - first);
    ctl_->head.store(head + n, std::memory_order_release);
    ring();
    return n;
}

void
ShmRing::close()
{
    ctl_->closed.store(1, std::memory_order_release);
    ring();
}

bool
ShmRing::producerClosed() const
{
    return ctl_->closed.load(std::memory_order_acquire) != 0;
}

void
ShmRing::ring()
{
    // Bump, then read the sleeper count; a parking consumer registers,
    // then reads the doorbell. With both pairs sequentially consistent,
    // either the consumer's re-check sees this push or this read sees
    // the sleeper and wakes it (and a FUTEX_WAIT entered after the bump
    // returns at once, since the word no longer reads its value).
    ctl_->doorbell.fetch_add(1);
    if (ctl_->sleepers.load() != 0)
        futexWakeAll(ctl_->doorbell);
}

bool
ShmRing::waitReadable(SteadyClock::time_point deadline)
{
    auto ready = [this] { return readableBytes() > 0 || producerClosed(); };
    SteadyClock::time_point spin_end =
        std::min(deadline, SteadyClock::now() + kSpin);
    do {
        if (ready())
            return true;
        std::this_thread::yield();
    } while (SteadyClock::now() < spin_end);

    for (SteadyClock::time_point now = SteadyClock::now(); now < deadline;
         now = SteadyClock::now()) {
        ctl_->sleepers.fetch_add(1);
        uint32_t seen = ctl_->doorbell.load();
        if (!ready())
            futexWait(ctl_->doorbell, seen, deadline - now);
        ctl_->sleepers.fetch_sub(1);
        if (ready())
            return true;
    }
    return ready();
}

size_t
ShmRing::pop(void *buf, size_t len)
{
    uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    uint64_t head = ctl_->head.load(std::memory_order_acquire);
    size_t avail = static_cast<size_t>(head - tail);
    size_t n = std::min(len, avail);
    if (n == 0)
        return 0;
    size_t at = static_cast<size_t>(tail) & mask_;
    size_t first = std::min(n, cap_ - at);
    std::memcpy(buf, data_ + at, first);
    if (n > first)
        std::memcpy(static_cast<char *>(buf) + first, data_, n - first);
    ctl_->tail.store(tail + n, std::memory_order_release);
    return n;
}

size_t
ShmRing::readableBytes() const
{
    uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    uint64_t head = ctl_->head.load(std::memory_order_acquire);
    return static_cast<size_t>(head - tail);
}

size_t
ShmRing::freeBytes() const
{
    uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    uint64_t tail = ctl_->tail.load(std::memory_order_acquire);
    return cap_ - static_cast<size_t>(head - tail);
}

size_t
shmRingCapacity(size_t bytes)
{
    size_t cap = 4096;
    while (cap < bytes)
        cap <<= 1;
    return cap;
}

namespace
{

constexpr uint32_t kShmMagic = 0x4653484d; // "FSHM"
constexpr uint32_t kShmVersion = 2;

/** Shared segment: header + two rings' control words + data. The
 *  whole segment starts zeroed (ftruncate), so the control words need
 *  no explicit init; `ready` flips to 1 after the creator fills in the
 *  geometry. Each side closes the ring it produces into, so a drained
 *  ring can distinguish "peer finished" from "peer slow". */
struct SegmentHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t ringBytes;
    std::atomic<uint32_t> ready;
    ShmRingCtl ctl[2]; // [0] creator->opener, [1] opener->creator
};

/** Fixed-size control-socket announcement; the segment name follows. */
struct WireHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t ringBytes;
    uint32_t nameLen;
};

size_t
segmentBytes(size_t ring_bytes)
{
    return sizeof(SegmentHeader) + 2 * ring_bytes;
}

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

class ShmLink : public PeerLink
{
  public:
    ShmLink(SocketFd control, bool creator, size_t ring_bytes,
            const std::string &tag, std::string carry)
        : control_(std::move(control)), creator_(creator),
          ringBytes_(shmRingCapacity(ring_bytes)),
          hdrBuf_(std::move(carry))
    {
        FS_ASSERT(!creator_ || hdrBuf_.empty(),
                  "shm creator got %zu unexpected control bytes",
                  hdrBuf_.size());
        stats_.ringBytes = ringBytes_;
        if (creator_)
            createSegment(tag);
        // The opener attaches lazily on first use so both ends of a
        // pair are constructible on one thread in any order.
    }

    ~ShmLink() override { close(); }

    long
    sendSome(const void *buf, size_t len) override
    {
        if (closed_)
            return -1;
        if (!attached_ && !tryAttach()) {
            if (peerDead_)
                return -1;
            // Pre-attach: own the bytes locally; flushed as the first
            // ring bytes once the creator's announcement arrives.
            preTx_.append(static_cast<const char *>(buf), len);
            return static_cast<long>(len);
        }
        if (!flushPreTx())
            return peerDead_ ? -1 : 0; // ordering: old bytes first
        size_t n = tx_.push(buf, len);
        if (n == 0) {
            ++stats_.txRingFullWaits;
            return peerDeadNow() ? -1 : 0;
        }
        stats_.bytesViaRing += n;
        return static_cast<long>(n);
    }

    long
    recvSome(void *buf, size_t len) override
    {
        if (closed_)
            return -1;
        if (!attached_ && !tryAttach())
            return peerDead_ ? -1 : 0;
        flushPreTx();
        size_t n = rx_.pop(buf, len);
        if (n > 0)
            return static_cast<long>(n);
        // Empty ring: only now does peer death mean end-of-stream —
        // everything the peer pushed before dying is still readable.
        return peerDeadNow() ? -1 : 0;
    }

    bool
    waitReadable(SteadyClock::time_point deadline) override
    {
        if (closed_)
            return true;
        if (!attached_ && !tryAttach()) {
            // The creator's announcement rides the control socket.
            if (!peerDead_)
                pollInUntil(control_.fd(), deadline);
            if (!tryAttach())
                return peerDead_;
        }
        flushPreTx();
        // A peer killed without closing never rings: its control
        // socket's hang-up is the only sign, checked once the park
        // times out.
        return rx_.waitReadable(deadline) || peerDeadNow();
    }

    void
    close() override
    {
        if (closed_)
            return;
        closed_ = true;
        if (attached_ && mapped_)
            tx_.close(); // wakes a parked peer
        // The opener unlinked at attach; the creator unlinks here so a
        // SIGKILL'd opener cannot leave the name behind (ENOENT fine).
        if (creator_ && !name_.empty())
            ::shm_unlink(name_.c_str());
        if (mapped_) {
            ::munmap(mapped_, mapLen_);
            mapped_ = nullptr;
        }
        control_.close();
    }

    bool isOpen() const override { return !closed_; }
    TransportKind kind() const override { return TransportKind::Shm; }

    std::string
    describe() const override
    {
        return csprintf("shm ring 2x%zuB %s%s", ringBytes_,
                        name_.empty() ? "(pending attach)" : name_.c_str(),
                        creator_ ? " (creator)" : "");
    }

    const ShmLinkStats *shmStats() const override { return &stats_; }

  private:
    void
    createSegment(const std::string &tag)
    {
        // Unique name: pid + monotonic counter + caller tag. Openers
        // unlink at attach and the creator unlinks at close, so names
        // are transient; uniqueness only avoids collisions between
        // concurrent links of one process tree.
        static std::atomic<uint32_t> counter{0};
        int fd = -1;
        for (int attempt = 0; attempt < 64; ++attempt) {
            name_ = csprintf("/fsim-shm-%d-%u-%s",
                             static_cast<int>(::getpid()),
                             counter.fetch_add(1), tag.c_str());
            fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR,
                            0600);
            if (fd >= 0 || errno != EEXIST)
                break;
        }
        if (fd < 0)
            fatal("shm_open(%s): %s", name_.c_str(), strerror(errno));
        mapLen_ = segmentBytes(ringBytes_);
        if (::ftruncate(fd, static_cast<off_t>(mapLen_)) != 0)
            fatal("ftruncate(%s, %zu): %s", name_.c_str(), mapLen_,
                  strerror(errno));
        mapped_ = ::mmap(nullptr, mapLen_, PROT_READ | PROT_WRITE,
                         MAP_SHARED, fd, 0);
        ::close(fd);
        if (mapped_ == MAP_FAILED) {
            mapped_ = nullptr;
            fatal("mmap shm segment %s: %s", name_.c_str(),
                  strerror(errno));
        }
        auto *hdr = static_cast<SegmentHeader *>(mapped_);
        hdr->magic = kShmMagic;
        hdr->version = kShmVersion;
        hdr->ringBytes = ringBytes_;
        hdr->ready.store(1, std::memory_order_release);
        bindRings(hdr);

        WireHeader wh{kShmMagic, kShmVersion, ringBytes_,
                      static_cast<uint32_t>(name_.size())};
        std::string announce(reinterpret_cast<const char *>(&wh),
                             sizeof(wh));
        announce += name_;
        if (!sendAll(control_.fd(), announce.data(), announce.size()))
            peerDead_ = true;
        attached_ = true;
    }

    /** Opener side: consume the creator's announcement from the
     *  control socket (non-blocking) and map the segment. */
    bool
    tryAttach()
    {
        if (attached_ || peerDead_ || !control_.valid())
            return attached_;
        // Accumulate whatever header bytes have arrived so far.
        size_t want = sizeof(WireHeader);
        if (hdrBuf_.size() >= sizeof(WireHeader)) {
            WireHeader wh;
            std::memcpy(&wh, hdrBuf_.data(), sizeof(wh));
            want = sizeof(WireHeader) + wh.nameLen;
        }
        while (hdrBuf_.size() < want) {
            char tmp[256];
            ssize_t n = ::recv(control_.fd(), tmp,
                               std::min(sizeof(tmp),
                                        want - hdrBuf_.size()),
                               MSG_DONTWAIT);
            if (n > 0) {
                hdrBuf_.append(tmp, static_cast<size_t>(n));
                if (hdrBuf_.size() == sizeof(WireHeader) &&
                    want == sizeof(WireHeader)) {
                    WireHeader wh;
                    std::memcpy(&wh, hdrBuf_.data(), sizeof(wh));
                    want = sizeof(WireHeader) + wh.nameLen;
                }
                continue;
            }
            if (n == 0) {
                peerDead_ = true;
                return false;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return false; // announcement not here yet
            peerDead_ = true;
            return false;
        }
        WireHeader wh;
        std::memcpy(&wh, hdrBuf_.data(), sizeof(wh));
        if (wh.magic != kShmMagic || wh.version != kShmVersion)
            panic("shm link announcement corrupt (magic %#x version %u)",
                  wh.magic, wh.version);
        name_ = hdrBuf_.substr(sizeof(WireHeader), wh.nameLen);
        ringBytes_ = static_cast<size_t>(wh.ringBytes);
        stats_.ringBytes = ringBytes_;
        hdrBuf_.clear();

        int fd = ::shm_open(name_.c_str(), O_RDWR, 0600);
        if (fd < 0 && errno == ENOENT) {
            // The creator closed (and so unlinked) before this first
            // attach: a teardown race, not an error — the peer is gone.
            peerDead_ = true;
            return false;
        }
        if (fd < 0)
            fatal("shm_open(%s) for attach: %s", name_.c_str(),
                  strerror(errno));
        mapLen_ = segmentBytes(ringBytes_);
        mapped_ = ::mmap(nullptr, mapLen_, PROT_READ | PROT_WRITE,
                         MAP_SHARED, fd, 0);
        ::close(fd);
        if (mapped_ == MAP_FAILED) {
            mapped_ = nullptr;
            fatal("mmap shm segment %s: %s", name_.c_str(),
                  strerror(errno));
        }
        // Unlink immediately: the mapping persists, and an unlinked
        // segment cannot go stale however this process later dies.
        ::shm_unlink(name_.c_str());

        auto *hdr = static_cast<SegmentHeader *>(mapped_);
        // The announcement was sent after the creator initialized the
        // segment, so ready is already visible; spin defensively.
        for (int i = 0;
             hdr->ready.load(std::memory_order_acquire) == 0; ++i) {
            if (i > 1000000)
                panic("shm segment %s never became ready",
                      name_.c_str());
            cpuRelax();
        }
        if (hdr->magic != kShmMagic || hdr->ringBytes != ringBytes_)
            panic("shm segment %s geometry mismatch", name_.c_str());
        bindRings(hdr);
        attached_ = true;
        flushPreTx();
        return true;
    }

    void
    bindRings(SegmentHeader *hdr)
    {
        char *data = static_cast<char *>(mapped_) + sizeof(SegmentHeader);
        ShmRing c2o(&hdr->ctl[0], data, ringBytes_);
        ShmRing o2c(&hdr->ctl[1], data + ringBytes_, ringBytes_);
        tx_ = creator_ ? c2o : o2c;
        rx_ = creator_ ? o2c : c2o;
    }

    /** Push buffered pre-attach bytes; true when fully drained. */
    bool
    flushPreTx()
    {
        if (preTx_.empty())
            return true;
        size_t n = tx_.push(preTx_.data(), preTx_.size());
        stats_.bytesViaRing += n;
        if (n == preTx_.size()) {
            preTx_.clear();
            return true;
        }
        preTx_.erase(0, n);
        return false;
    }

    /** Death watch: the peer closed its ring, or its control-socket
     *  end is gone (covers SIGKILL, where the ring is never closed). */
    bool
    peerDeadNow()
    {
        if (peerDead_)
            return true;
        if (attached_ && mapped_ && rx_.producerClosed()) {
            peerDead_ = true;
            return true;
        }
        if (control_.valid() && pollIn(control_.fd(), 0) != 0) {
            // Data never rides the control socket after the handshake,
            // so readability means EOF / reset.
            char c;
            ssize_t n = ::recv(control_.fd(), &c, 1,
                               MSG_DONTWAIT | MSG_PEEK);
            if (n <= 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                peerDead_ = true;
            if (n == 0)
                peerDead_ = true;
        }
        return peerDead_;
    }

    SocketFd control_;
    const bool creator_;
    size_t ringBytes_;
    std::string name_;
    void *mapped_ = nullptr;
    size_t mapLen_ = 0;
    ShmRing tx_;
    ShmRing rx_;
    std::string preTx_;  //!< opener TX buffered until attach
    std::string hdrBuf_; //!< partial announcement bytes
    bool attached_ = false;
    bool peerDead_ = false;
    bool closed_ = false;
    ShmLinkStats stats_;
};

} // namespace

std::unique_ptr<PeerLink>
makeShmLink(SocketFd control, bool creator, size_t ring_bytes,
            const std::string &tag, std::string carry)
{
    return std::make_unique<ShmLink>(std::move(control), creator,
                                     ring_bytes, tag, std::move(carry));
}

} // namespace firesim
