#include "net/remote/shm_ring.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"

namespace firesim
{

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
    return n;
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
constexpr uint32_t kShmVersion = 1;

/** Shared segment: header + two rings' control words + data. The
 *  whole segment starts zeroed (ftruncate), so head/tail need no
 *  explicit init; `ready` flips to 1 after the creator fills in the
 *  geometry. `closedBits` collects one bit per side on close so a
 *  drained ring can distinguish "peer finished" from "peer slow". */
struct SegmentHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t ringBytes;
    std::atomic<uint32_t> ready;
    std::atomic<uint32_t> closedBits;
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
    readable() override
    {
        return quickProbe() != 0;
    }

    int pollFd() const override { return control_.fd(); }
    bool needsRingPolling() const override { return true; }

    void
    close() override
    {
        if (closed_)
            return;
        closed_ = true;
        if (attached_ && mapped_) {
            auto *hdr = static_cast<SegmentHeader *>(mapped_);
            hdr->closedBits.fetch_or(creator_ ? 1u : 2u,
                                     std::memory_order_release);
        }
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

    /** 1 when recvSome would make progress, -1 when the link is done
     *  (peer dead and ring drained), 0 otherwise. */
    int
    quickProbe()
    {
        if (closed_)
            return -1;
        if (!attached_) {
            if (!tryAttach())
                return peerDead_ ? -1 : 0;
        }
        flushPreTx();
        if (rx_.readableBytes() > 0)
            return 1;
        return peerDeadNow() ? -1 : 0;
    }

    /** Death watch: the peer's closed bit, or its control-socket end
     *  gone (covers SIGKILL, where no bit is ever set). */
    bool
    peerDeadNow()
    {
        if (peerDead_)
            return true;
        if (attached_ && mapped_) {
            uint32_t peer_bit = creator_ ? 2u : 1u;
            auto *hdr = static_cast<SegmentHeader *>(mapped_);
            if (hdr->closedBits.load(std::memory_order_acquire) &
                peer_bit) {
                peerDead_ = true;
                return true;
            }
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
