/**
 * @file
 * The shared-memory fabric in isolation: SPSC ring arithmetic (wrap,
 * backpressure, capacity rounding), a concurrent producer/consumer
 * integrity run (the TSan target — the ring's acquire/release pairing
 * is the entire cross-process synchronization story), and the ShmLink
 * handshake over a socketpair control channel, including lazy opener
 * attach, backpressure, peer-close detection, and segment cleanup.
 * Parking: a reader blocked in PeerLink::waitReadable on a shm ring
 * (futex doorbell) wakes on the peer's push and on the peer's close.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <unistd.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/remote/shm_ring.hh"
#include "net/remote/socket.hh"

namespace firesim
{
namespace
{

TEST(ShmRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(shmRingCapacity(0), 4096u);
    EXPECT_EQ(shmRingCapacity(1), 4096u);
    EXPECT_EQ(shmRingCapacity(4096), 4096u);
    EXPECT_EQ(shmRingCapacity(4097), 8192u);
    EXPECT_EQ(shmRingCapacity(1u << 20), 1u << 20);
    EXPECT_EQ(shmRingCapacity((1u << 20) + 1), 2u << 20);
}

/** The deadline a parked reader is given. Only a lost wake-up runs
 *  into it, so the tests need no timing margin. */
constexpr auto kParkDeadline = std::chrono::seconds(30);

/** Heap-backed ring for the unit tests (the view doesn't care where
 *  the control words and data live). */
struct HeapRing
{
    ShmRingCtl ctl;
    std::vector<char> data;
    ShmRing ring;

    explicit HeapRing(size_t capacity) : data(capacity)
    {
        ctl.head.store(0);
        ctl.tail.store(0);
        ring = ShmRing(&ctl, data.data(), capacity);
    }
};

TEST(ShmRing, PushPopWrapsAndBackpressures)
{
    HeapRing hr(4096);
    ShmRing &r = hr.ring;
    EXPECT_EQ(r.freeBytes(), 4096u);
    EXPECT_EQ(r.readableBytes(), 0u);

    // Fill completely: push accepts exactly the free space, then 0.
    std::string chunk(3000, 'a');
    EXPECT_EQ(r.push(chunk.data(), chunk.size()), 3000u);
    EXPECT_EQ(r.push(chunk.data(), chunk.size()), 1096u);
    EXPECT_EQ(r.push(chunk.data(), 1), 0u);
    EXPECT_EQ(r.readableBytes(), 4096u);

    // Drain a prefix, refill across the wrap boundary, verify bytes
    // come out in order.
    char buf[2048];
    EXPECT_EQ(r.pop(buf, 2048), 2048u);
    std::string pattern;
    for (int i = 0; i < 2048; ++i)
        pattern.push_back(static_cast<char>('A' + i % 26));
    EXPECT_EQ(r.push(pattern.data(), pattern.size()), 2048u);
    EXPECT_EQ(r.pop(buf, 2048), 2048u); // the rest of the 'a's
    for (int i = 0; i < 2048; ++i)
        ASSERT_EQ(buf[i], 'a') << i;
    EXPECT_EQ(r.pop(buf, 2048), 2048u); // the wrapped pattern
    EXPECT_EQ(std::memcmp(buf, pattern.data(), 2048), 0);
    EXPECT_EQ(r.pop(buf, 1), 0u);
    EXPECT_EQ(r.freeBytes(), 4096u);
}

TEST(ShmRing, ConcurrentProducerConsumerPreservesByteStream)
{
    // One real producer thread against one consumer through a ring far
    // smaller than the stream, so head chases tail across thousands of
    // wraps. The producer pauses past the consumer's spin window every
    // 64 pushes, so the consumer also parks on the doorbell. Run under
    // ctest -L sanitize-thread this is the proof the acquire/release
    // pairing and the doorbell protocol are complete; a lost wake-up
    // runs into the park deadline.
    constexpr size_t kStream = 1 << 20;
    HeapRing hr(4096);
    ShmRing &r = hr.ring;

    // A failure stops the producer and joins it before the test
    // asserts, so it is reported as a failure instead of destroying a
    // joinable thread.
    std::atomic<bool> stop{false};
    std::thread producer([&r, &stop] {
        size_t sent = 0;
        char buf[257];
        for (int pushes = 1; sent < kStream && !stop.load(); ++pushes) {
            size_t want = std::min(sizeof(buf), kStream - sent);
            for (size_t i = 0; i < want; ++i)
                buf[i] = static_cast<char>((sent + i) * 31 + 7);
            size_t n = r.push(buf, want);
            sent += n;
            if (n == 0)
                std::this_thread::yield();
            if (pushes % 64 == 0)
                std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
    });

    std::string failure;
    size_t got = 0;
    char buf[389];
    while (got < kStream && failure.empty()) {
        size_t n = r.pop(buf, sizeof(buf));
        if (n == 0) {
            auto t0 = std::chrono::steady_clock::now();
            bool readable = r.waitReadable(t0 + kParkDeadline);
            if (!readable ||
                std::chrono::steady_clock::now() - t0 >= kParkDeadline / 2)
                failure = "lost wake-up at byte " + std::to_string(got);
            continue;
        }
        for (size_t i = 0; i < n && failure.empty(); ++i)
            if (buf[i] != static_cast<char>((got + i) * 31 + 7))
                failure = "stream corrupt at byte " + std::to_string(got + i);
        got += n;
    }
    stop = true;
    producer.join();
    ASSERT_EQ(failure, "");
    EXPECT_EQ(r.readableBytes(), 0u);
}

/** Count /dev/shm entries created by this process's shm links. */
size_t
liveShmSegments()
{
    std::string prefix = "fsim-shm-" + std::to_string(::getpid()) + "-";
    size_t live = 0;
    DIR *d = ::opendir("/dev/shm");
    if (!d)
        return 0; // no tmpfs view — cleanup is untestable here
    while (struct dirent *e = ::readdir(d))
        if (std::string(e->d_name).rfind(prefix, 0) == 0)
            ++live;
    ::closedir(d);
    return live;
}

/**
 * Wait up to @p timeout_ms for @p link to become readable, then take up
 * to @p len bytes: >0 bytes read, -1 peer gone with nothing left, 0
 * timed out.
 */
long
recvWithin(PeerLink &link, void *buf, size_t len, int timeout_ms)
{
    if (!link.waitReadable(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(timeout_ms)))
        return 0;
    return link.recvSome(buf, len);
}

TEST(ShmLink, HandshakeRoundTripAndCleanup)
{
    size_t before = liveShmSegments();
    auto [fd0, fd1] = localSocketPair();
    auto creator =
        makeShmLink(std::move(fd0), true, 1 << 16, "t0", {});
    auto opener =
        makeShmLink(std::move(fd1), false, 1 << 16, "t0", {});
    ASSERT_TRUE(creator && opener);
    EXPECT_EQ(creator->kind(), TransportKind::Shm);
    EXPECT_EQ(opener->kind(), TransportKind::Shm);

    // Creator -> opener: the opener attaches lazily on first use.
    std::string msg = "hello over the ring";
    ASSERT_EQ(creator->sendSome(msg.data(), msg.size()),
              static_cast<long>(msg.size()));
    char buf[64];
    long n = recvWithin(*opener, buf, sizeof(buf), 2000);
    ASSERT_EQ(n, static_cast<long>(msg.size()));
    EXPECT_EQ(std::string(buf, n), msg);

    // Opener -> creator.
    std::string back = "and back";
    ASSERT_EQ(opener->sendSome(back.data(), back.size()),
              static_cast<long>(back.size()));
    n = recvWithin(*creator, buf, sizeof(buf), 2000);
    ASSERT_EQ(n, static_cast<long>(back.size()));
    EXPECT_EQ(std::string(buf, n), back);

    // Host counters ride the link; sockets report none.
    const ShmLinkStats *stats = creator->shmStats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->bytesViaRing, msg.size());
    EXPECT_GE(stats->ringBytes, 1u << 16);

    // Attached on both sides: the name is already unlinked, so the
    // only /dev/shm growth allowed here is zero.
    EXPECT_EQ(liveShmSegments(), before);

    creator->close();
    opener->close();
    EXPECT_FALSE(creator->isOpen());
    EXPECT_EQ(liveShmSegments(), before) << "leaked shm segment";
}

TEST(ShmLink, RingFullBackpressuresThenDrains)
{
    auto [fd0, fd1] = localSocketPair();
    auto creator =
        makeShmLink(std::move(fd0), true, 4096, "bp", {});
    auto opener =
        makeShmLink(std::move(fd1), false, 4096, "bp", {});

    // The creator writes straight into the ring: a full ring returns
    // 0 from sendSome (never blocks, never errors).
    std::string blob(8192, 'x');
    size_t accepted = 0;
    for (int spins = 0; spins < 64 && accepted < blob.size(); ++spins) {
        long n = creator->sendSome(blob.data() + accepted,
                                   blob.size() - accepted);
        ASSERT_GE(n, 0);
        if (n == 0)
            break; // backpressure
        accepted += n;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, blob.size()) << "4 KiB ring absorbed 8 KiB";
    const ShmLinkStats *stats = creator->shmStats();
    ASSERT_NE(stats, nullptr);
    EXPECT_GT(stats->txRingFullWaits, 0u);

    // Draining the consumer side frees the producer again.
    char sink[4096];
    ASSERT_GT(recvWithin(*opener, sink, sizeof(sink), 2000), 0);
    while (opener->recvSome(sink, sizeof(sink)) > 0) {
    }
    EXPECT_GT(creator->sendSome(blob.data(), 1024), 0);
    creator->close();
    opener->close();
}

TEST(ShmLink, PeerCloseReadsAsGoneAfterDrain)
{
    auto [fd0, fd1] = localSocketPair();
    auto creator =
        makeShmLink(std::move(fd0), true, 1 << 16, "pc", {});
    auto opener =
        makeShmLink(std::move(fd1), false, 1 << 16, "pc", {});

    // Attach the opener first (lazy — first receive does it): a
    // creator that closes before the opener ever attached would have
    // unlinked the name out from under it.
    std::string probe = "attach";
    ASSERT_EQ(creator->sendSome(probe.data(), probe.size()),
              static_cast<long>(probe.size()));
    char buf[64];
    ASSERT_EQ(recvWithin(*opener, buf, sizeof(buf), 2000),
              static_cast<long>(probe.size()));

    std::string last = "parting words";
    ASSERT_EQ(creator->sendSome(last.data(), last.size()),
              static_cast<long>(last.size()));
    creator->close();

    // Already-pushed bytes must still be readable after the peer
    // closed — only then does the link report peer-gone.
    long n = recvWithin(*opener, buf, sizeof(buf), 2000);
    ASSERT_EQ(n, static_cast<long>(last.size()));
    EXPECT_EQ(std::string(buf, n), last);
    EXPECT_EQ(opener->recvSome(buf, sizeof(buf)), -1);
    EXPECT_EQ(recvWithin(*opener, buf, sizeof(buf), 2000), -1);
    opener->close();
}

TEST(ShmLink, CreatorClosedBeforeFirstAttachReadsAsGone)
{
    // Teardown race: the creator announces its segment, then closes
    // (unlinking the name) before the opener ever attached. The
    // opener's lazy attach must see a closed peer, not die in shm_open.
    size_t before = liveShmSegments();
    auto [fd0, fd1] = localSocketPair();
    auto creator =
        makeShmLink(std::move(fd0), true, 1 << 16, "early", {});
    auto opener =
        makeShmLink(std::move(fd1), false, 1 << 16, "early", {});
    creator->close();

    char buf[16];
    EXPECT_EQ(opener->recvSome(buf, sizeof(buf)), -1);
    EXPECT_EQ(opener->sendSome("x", 1), -1);
    opener->close();
    EXPECT_FALSE(opener->isOpen());
    EXPECT_EQ(liveShmSegments(), before) << "leaked shm segment";
}

/** A shm link pair whose opener has already attached (it attaches
 *  lazily, on its first receive), so a wait on it parks on the ring. */
std::pair<std::unique_ptr<PeerLink>, std::unique_ptr<PeerLink>>
attachedShmPair(const std::string &tag)
{
    auto [fd0, fd1] = localSocketPair();
    auto creator = makeShmLink(std::move(fd0), true, 1 << 16, tag, {});
    auto opener = makeShmLink(std::move(fd1), false, 1 << 16, tag, {});
    char buf[16];
    EXPECT_EQ(creator->sendSome("attach", 6), 6);
    EXPECT_EQ(recvWithin(*opener, buf, sizeof(buf), 2000), 6);
    return {std::move(creator), std::move(opener)};
}

/**
 * Park @p reader while a thread acts on @p writer after 50 ms: the
 * wait must report readable, and return well before the deadline.
 */
template <typename Act>
void
expectParkedReaderWakes(PeerLink &writer, PeerLink &reader, Act act)
{
    auto t0 = std::chrono::steady_clock::now();
    std::thread peer([&writer, act] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        act(writer);
    });
    bool readable = reader.waitReadable(t0 + kParkDeadline);
    auto waited = std::chrono::steady_clock::now() - t0;
    peer.join();
    EXPECT_TRUE(readable);
    EXPECT_LT(waited, kParkDeadline / 2) << "the wake-up was lost";
}

void
expectParkedReaderWakesOnPush(PeerLink &writer, PeerLink &reader)
{
    expectParkedReaderWakes(writer, reader, [](PeerLink &w) {
        EXPECT_EQ(w.sendSome("wake", 4), 4);
    });
    char buf[16];
    EXPECT_EQ(reader.recvSome(buf, sizeof(buf)), 4);
    EXPECT_EQ(std::string(buf, 4), "wake");
}

void
expectParkedReaderWakesOnPeerClose(PeerLink &writer, PeerLink &reader)
{
    expectParkedReaderWakes(writer, reader,
                            [](PeerLink &w) { w.close(); });
    char buf[16];
    EXPECT_EQ(reader.recvSome(buf, sizeof(buf)), -1);
}

TEST(ShmLink, ParkedReaderWakesOnPush)
{
    auto [creator, opener] = attachedShmPair("wp");
    expectParkedReaderWakesOnPush(*creator, *opener);
    // And the other direction, whose ring has its own doorbell.
    expectParkedReaderWakesOnPush(*opener, *creator);
}

TEST(ShmLink, ParkedReaderWakesOnPeerClose)
{
    auto [creator, opener] = attachedShmPair("wc");
    expectParkedReaderWakesOnPeerClose(*creator, *opener);
}

} // namespace
} // namespace firesim
