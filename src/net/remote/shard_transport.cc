#include "net/remote/shard_transport.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/logging.hh"
#include "net/remote/shm_ring.hh"
#include "net/remote/socket_link.hh"

namespace firesim
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

int64_t
elapsedNs(SteadyClock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - t0)
        .count();
}

/** Compact a consumed rxBuf prefix once it crosses this size (and
 *  dominates the buffer) — amortizes the memmove that used to run on
 *  every parsed frame. */
constexpr size_t kRxCompactBytes = 64 * 1024;

/** Longest single park in the round barrier. Between parks the
 *  barrier re-probes every pending peer, enforces recvTimeoutMs, and
 *  lets a shm link consult its death watch (a peer killed without
 *  closing never rings the doorbell). */
constexpr auto kParkSlice = std::chrono::milliseconds(5);

/**
 * Blocking read of one frame straight off a rendezvous socket, before
 * any PeerLink exists (fatal on timeout/EOF — a shard that cannot
 * finish its handshake can never join the barrier). Leftover bytes
 * stay in @p rx_buf for the link to inherit.
 */
Frame
recvFrameRaw(const SocketFd &sock, std::string &rx_buf,
             uint64_t &bytes_rx, int timeout_ms, uint32_t local_rank,
             uint32_t peer_rank)
{
    auto deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    Frame f;
    size_t pos = 0;
    while (!decodeFrame(rx_buf, pos, f)) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - SteadyClock::now())
                        .count();
        if (left <= 0 || pollIn(sock.fd(), static_cast<int>(left)) <= 0)
            fatal("shard %u: handshake with rank %u timed out",
                  local_rank, peer_rank);
        char tmp[4096];
        long n = recvSome(sock.fd(), tmp, sizeof(tmp));
        if (n <= 0)
            fatal("shard %u: rank %u vanished during handshake",
                  local_rank, peer_rank);
        rx_buf.append(tmp, static_cast<size_t>(n));
        bytes_rx += static_cast<uint64_t>(n);
    }
    rx_buf.erase(0, pos);
    return f;
}

/**
 * Decide the fabric for one rendezvous pair from both Hellos. The
 * rule is a pure function of (local pref, peer pref, same host), so
 * both ends reach the same answer independently: an explicit `shm` on
 * either side demands shm (fatal across hosts or against an explicit
 * socket choice), `auto`+`auto` on one host picks shm, anything else
 * is TCP. The socketpair path is fromFds, not the rendezvous.
 */
TransportKind
negotiateTransport(const ShardTransport::Options &opts,
                   uint32_t peer_rank, uint32_t peer_pref_raw,
                   uint64_t peer_token, uint64_t local_token)
{
    TransportKind local = opts.transport;
    TransportKind peer = static_cast<TransportKind>(peer_pref_raw);
    bool same_host = peer_token == local_token;
    if (local == TransportKind::Shm || peer == TransportKind::Shm) {
        if (local != peer && local != TransportKind::Auto &&
            peer != TransportKind::Auto)
            fatal("shard %u: transport mismatch with rank %u "
                  "(local --shard-transport=%s, peer %s)",
                  opts.rank, peer_rank,
                  transportKindName(opts.transport),
                  transportKindName(peer));
        if (!same_host)
            fatal("shard %u: --shard-transport=shm but rank %u runs on "
                  "a different host (host tokens %016llx != %016llx)",
                  opts.rank, peer_rank,
                  (unsigned long long)local_token,
                  (unsigned long long)peer_token);
        return TransportKind::Shm;
    }
    if (local == TransportKind::Auto && peer == TransportKind::Auto &&
        same_host)
        return TransportKind::Shm;
    return TransportKind::Tcp;
}

} // namespace

ShardTransport::ShardTransport(const Options &o, uint64_t plan_hash)
    : opts(o), planHash(plan_hash)
{
    FS_ASSERT(opts.shards >= 2, "shard transport needs >= 2 shards");
    FS_ASSERT(opts.rank < opts.shards, "shard rank %u >= shard count %u",
              opts.rank, opts.shards);
}

ShardTransport::~ShardTransport()
{
    shutdown();
}

std::unique_ptr<ShardTransport>
ShardTransport::rendezvousTcp(const Options &opts, uint64_t plan_hash)
{
    std::unique_ptr<ShardTransport> t(
        new ShardTransport(opts, plan_hash));

    // Every rank listens on basePort + rank, connects to all lower
    // ranks, and accepts all higher ranks — a full mesh with one TCP
    // connection per shard pair and no central coordinator.
    SocketFd listener = tcpListen(
        "", static_cast<uint16_t>(opts.basePort + opts.rank));

    for (uint32_t q = 0; q < opts.shards; ++q) {
        if (q == opts.rank)
            continue;
        Peer peer;
        peer.rank = q;
        t->peers.push_back(std::move(peer));
        t->ranks.push_back(q);
    }

    uint64_t host_token = localHostToken();
    std::string hello;
    encodeHello(hello, opts.rank, opts.shards, plan_hash,
                static_cast<uint32_t>(opts.transport), host_token);

    // Once a pair's Hellos are exchanged, both ends independently
    // negotiate the fabric and build the link. For shm the TCP socket
    // survives as the control channel (the creator's segment
    // announcement and the death watch); bytes a fast creator already
    // pushed behind its Hello are handed to the link as announcement
    // carry. For TCP they are round-0 traffic and stay in rxBuf.
    auto establish = [&](Peer &peer, SocketFd sock, const Frame &f,
                         std::string carry) {
        t->validateHello(peer, f);
        TransportKind kind = negotiateTransport(
            opts, peer.rank, f.transport, f.hostToken, host_token);
        if (kind == TransportKind::Shm) {
            bool creator = opts.rank < peer.rank;
            FS_ASSERT(!creator || carry.empty(),
                      "shard %u: unexpected %zu control bytes from "
                      "opener rank %u",
                      opts.rank, carry.size(), peer.rank);
            peer.link = makeShmLink(
                std::move(sock), creator, opts.shmRingBytes,
                csprintf("r%ur%u", std::min(opts.rank, peer.rank),
                         std::max(opts.rank, peer.rank)),
                std::move(carry));
        } else {
            peer.link = makeSocketLink(
                std::move(sock), TransportKind::Tcp,
                csprintf("tcp %s:%u", opts.host.c_str(),
                         opts.basePort + peer.rank));
            peer.rxBuf = std::move(carry);
        }
        debug("shard %u: rank %u via %s", opts.rank, peer.rank,
              peer.link->describe().c_str());
    };

    // Connect side: lower ranks are already listening (or will be
    // shortly — bounded-backoff retry absorbs the startup race). The
    // connector speaks first so the acceptor can identify it.
    for (uint32_t q = 0; q < opts.rank; ++q) {
        Peer &peer = t->peers[t->peerIndexOf(q)];
        SocketFd sock = tcpConnectRetry(
            opts.host, static_cast<uint16_t>(opts.basePort + q),
            opts.connectTimeoutMs);
        if (!sendAll(sock.fd(), hello.data(), hello.size()))
            fatal("shard %u: hello send to rank %u failed", opts.rank, q);
        peer.stats.bytesTx += hello.size();
        std::string carry;
        Frame f = recvFrameRaw(sock, carry, peer.stats.bytesRx,
                               opts.recvTimeoutMs, opts.rank, q);
        establish(peer, std::move(sock), f, std::move(carry));
    }

    // Accept side: identify each incoming connection by its Hello.
    uint32_t expected = opts.shards - opts.rank - 1;
    for (uint32_t i = 0; i < expected; ++i) {
        SocketFd sock = tcpAccept(listener, opts.recvTimeoutMs);
        if (!sock.valid())
            fatal("shard %u: timed out waiting for %u more peer shard(s)",
                  opts.rank, expected - i);
        std::string carry;
        uint64_t probe_rx = 0;
        Frame f = recvFrameRaw(sock, carry, probe_rx,
                               opts.recvTimeoutMs, opts.rank,
                               opts.shards);
        if (f.type != FrameType::Hello)
            fatal("shard %u: peer spoke before hello", opts.rank);
        if (f.rank <= opts.rank || f.rank >= opts.shards)
            fatal("shard %u: unexpected hello from rank %u", opts.rank,
                  f.rank);
        Peer &peer = t->peers[t->peerIndexOf(f.rank)];
        if (peer.link)
            fatal("shard %u: rank %u connected twice", opts.rank, f.rank);
        peer.stats.bytesRx += probe_rx;
        if (!sendAll(sock.fd(), hello.data(), hello.size()))
            fatal("shard %u: hello send to rank %u failed", opts.rank,
                  f.rank);
        peer.stats.bytesTx += hello.size();
        establish(peer, std::move(sock), f, std::move(carry));
    }

    return t;
}

std::unique_ptr<ShardTransport>
ShardTransport::fromFds(const Options &opts,
                        std::vector<std::pair<uint32_t, SocketFd>> fds,
                        uint64_t plan_hash)
{
    std::unique_ptr<ShardTransport> t(
        new ShardTransport(opts, plan_hash));
    FS_ASSERT(fds.size() == opts.shards - 1,
              "fromFds: %zu peers for %u shards", fds.size(), opts.shards);

    std::sort(fds.begin(), fds.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    for (auto &[peer_rank, sock] : fds) {
        FS_ASSERT(peer_rank < opts.shards && peer_rank != opts.rank,
                  "fromFds: bad peer rank %u", peer_rank);
        FS_ASSERT(t->ranks.empty() || t->ranks.back() != peer_rank,
                  "fromFds: duplicate peer rank %u", peer_rank);
        Peer peer;
        peer.rank = peer_rank;
        // Auto keeps the fd as the byte stream itself (the caller
        // chose the socketpair fast path; honor it); only an explicit
        // `shm` upgrades it into the control socket of a ring pair.
        if (opts.transport == TransportKind::Shm) {
            peer.link = makeShmLink(
                std::move(sock), opts.rank < peer_rank,
                opts.shmRingBytes,
                csprintf("r%ur%u", std::min(opts.rank, peer_rank),
                         std::max(opts.rank, peer_rank)));
        } else {
            peer.link = makeSocketLink(
                std::move(sock), TransportKind::Unix, "unix socketpair");
        }
        // The peer's hello is validated lazily by drainFrames(): both
        // ends of a socketpair can be built in any order on one thread.
        t->peers.push_back(std::move(peer));
        t->ranks.push_back(peer_rank);
        t->sendHello(t->peers.back());
    }
    return t;
}

void
ShardTransport::sendHello(Peer &peer)
{
    std::string hello;
    encodeHello(hello, opts.rank, opts.shards, planHash,
                static_cast<uint32_t>(opts.transport), localHostToken());
    if (!sendAllLink(peer, hello))
        fatal("shard %u: hello send to rank %u failed", opts.rank,
              peer.rank);
}

size_t
ShardTransport::peerIndexOf(uint32_t peer_rank) const
{
    for (size_t i = 0; i < ranks.size(); ++i)
        if (ranks[i] == peer_rank)
            return i;
    panic("shard %u: rank %u is not a peer", opts.rank, peer_rank);
}

void
ShardTransport::validateHello(Peer &peer, const Frame &frame) const
{
    if (frame.type != FrameType::Hello)
        fatal("shard %u: expected hello from rank %u", opts.rank,
              peer.rank);
    if (frame.version != kWireVersion)
        fatal("shard %u: peer rank %u speaks wire version %u, "
              "expected %u",
              opts.rank, peer.rank, frame.version, kWireVersion);
    if (frame.shards != opts.shards)
        fatal("shard %u: peer rank %u was launched with --shards=%u, "
              "local --shards=%u",
              opts.rank, peer.rank, frame.shards, opts.shards);
    if (peer.rank < opts.shards && frame.rank != peer.rank)
        fatal("shard %u: peer claims rank %u, expected %u", opts.rank,
              frame.rank, peer.rank);
    if (frame.topoHash != planHash)
        fatal("shard %u: shard-plan mismatch with rank %u "
              "(hash %016llx != %016llx) — the shard processes were "
              "launched with different topologies, configs, or "
              "server->rank owner maps",
              opts.rank, frame.rank,
              (unsigned long long)frame.topoHash,
              (unsigned long long)planHash);
    peer.helloSeen = true;
}

void
ShardTransport::bindRxChannel(uint32_t link_id, uint32_t peer_rank,
                              TokenChannel *chan)
{
    FS_ASSERT(chan != nullptr, "null RX channel for link %u", link_id);
    for (const auto &b : rxBindings)
        FS_ASSERT(b.linkId != link_id, "link %u RX-bound twice", link_id);
    RxBinding b;
    b.linkId = link_id;
    b.peerIdx = static_cast<uint32_t>(peerIndexOf(peer_rank));
    b.chan = chan;
    rxBindings.push_back(b);
}

void
ShardTransport::bindTxLink(uint32_t link_id, uint32_t peer_rank)
{
    for (const auto &b : txBindings)
        FS_ASSERT(b.linkId != link_id, "link %u TX-bound twice", link_id);
    TxBinding b;
    b.linkId = link_id;
    b.peerIdx = static_cast<uint32_t>(peerIndexOf(peer_rank));
    txBindings.push_back(b);
}

size_t
ShardTransport::livePeers() const
{
    return peers.size() - lostPeers;
}

void
ShardTransport::onTxBatch(uint32_t link_id, const TokenBatch &batch)
{
    for (const auto &b : txBindings) {
        if (b.linkId != link_id)
            continue;
        Peer &peer = peers[b.peerIdx];
        if (!peer.stats.alive)
            return; // degraded: the far shard is gone
        encodeBatch(peer.txBuf, link_id, batch);
        ++peer.stats.batchesTx;
        return;
    }
    panic("shard %u: TX batch for unbound link %u", opts.rank, link_id);
}

void
ShardTransport::peerLost(Peer &peer, uint64_t round, Cycles cycle,
                         const char *why)
{
    if (!peer.stats.alive)
        return;
    if (opts.failFast) {
        // Record the loss and flush telemetry before aborting: a
        // failFast death must still leave its dumps behind.
        if (lossFn)
            lossFn(peer.rank, round, cycle);
        if (fatalFlushFn)
            fatalFlushFn();
        fatal("shard %u: lost peer shard %u at round %llu (%s)",
              opts.rank, peer.rank, (unsigned long long)round, why);
    }
    warn("shard %u: lost peer shard %u at round %llu (%s); degrading "
         "its links to empty tokens",
         opts.rank, peer.rank, (unsigned long long)round, why);
    peer.stats.alive = false;
    // Closing the link reclaims host resources now, not at exit: for
    // shm that unlinks the segment name, so a SIGKILL'd peer cannot
    // leave a stale ring behind the survivor.
    if (peer.link)
        peer.link->close();
    peer.txBuf.clear();
    peer.rxBuf.clear();
    peer.rxPos = 0;
    ++lostPeers;
    if (lossFn)
        lossFn(peer.rank, round, cycle);
}

bool
ShardTransport::sendAllLink(Peer &peer, const std::string &buf)
{
    size_t off = 0;
    auto t0 = SteadyClock::now();
    int spins = 0;
    while (off < buf.size()) {
        long n = peer.link->sendSome(buf.data() + off, buf.size() - off);
        if (n < 0)
            return false;
        if (n > 0) {
            off += static_cast<size_t>(n);
            peer.stats.bytesTx += static_cast<uint64_t>(n);
            spins = 0;
            continue;
        }
        // Fabric momentarily full (shm ring with a busy consumer).
        // Drain our own inbound direction — the peer may itself be
        // blocked pushing to us — then back off, bounded by the same
        // timeout the barrier uses.
        if (pumpRx(peer) < 0)
            return false;
        if (elapsedNs(t0) >
            int64_t(opts.recvTimeoutMs) * 1000000)
            return false;
        if (++spins < 256)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

long
ShardTransport::pumpRx(Peer &peer)
{
    char tmp[65536];
    long total = 0;
    for (;;) {
        long n = peer.link->recvSome(tmp, sizeof(tmp));
        if (n > 0) {
            peer.rxBuf.append(tmp, static_cast<size_t>(n));
            peer.stats.bytesRx += static_cast<uint64_t>(n);
            total += n;
            continue;
        }
        if (n == 0)
            return total;
        return total > 0 ? total : -1; // peer gone, nothing buffered
    }
}

void
ShardTransport::compactRx(Peer &peer)
{
    if (peer.rxPos == 0)
        return;
    if (peer.rxPos == peer.rxBuf.size()) {
        // Common case: everything parsed. clear() keeps capacity, so
        // steady state allocates nothing and memmoves nothing.
        peer.rxBuf.clear();
        peer.rxPos = 0;
    } else if (peer.rxPos >= kRxCompactBytes &&
               peer.rxPos >= peer.rxBuf.size() / 2) {
        // Large consumed prefix under a partial frame: one amortized
        // memmove instead of one per frame.
        peer.rxBuf.erase(0, peer.rxPos);
        peer.rxPos = 0;
    }
}

void
ShardTransport::drainFrames(Peer &peer, uint64_t round,
                            Cycles round_start)
{
    size_t pos = peer.rxPos;
    Frame f;
    while (!peer.roundDone && decodeFrame(peer.rxBuf, pos, f)) {
        switch (f.type) {
          case FrameType::Hello:
            validateHello(peer, f);
            break;
          case FrameType::Batch: {
            bool bound = false;
            for (auto &b : rxBindings) {
                if (b.linkId != f.linkId)
                    continue;
                FS_ASSERT(&peers[b.peerIdx] == &peer,
                          "link %u batch from rank %u, bound to rank %u",
                          f.linkId, peer.rank, ranks[b.peerIdx]);
                FS_ASSERT(f.batch.start == b.nextStart,
                          "link %u batch start %llu, expected %llu",
                          f.linkId, (unsigned long long)f.batch.start,
                          (unsigned long long)b.nextStart);
                b.nextStart += b.chan->quantum();
                ++b.pushed;
                ++peer.stats.batchesRx;
                // push() copies into the channel's free slot (the
                // frame's flit vector stays with the frame), restamps
                // production -> arrival (+latency) and re-checks stream
                // contiguity, exactly as for a local producer.
                b.chan->push(f.batch);
                bound = true;
                break;
            }
            if (!bound)
                panic("shard %u: batch for unbound link %u from rank %u",
                      opts.rank, f.linkId, peer.rank);
            break;
          }
          case FrameType::RoundDone:
            if (f.round != round || f.cycle != round_start)
                fatal("shard %u desynchronized from rank %u: peer at "
                      "round %llu cycle %llu, local round %llu cycle "
                      "%llu",
                      opts.rank, peer.rank, (unsigned long long)f.round,
                      (unsigned long long)f.cycle,
                      (unsigned long long)round,
                      (unsigned long long)round_start);
            peer.roundDone = true;
            ++peer.stats.roundsBarriered;
            peer.stats.peerRoundNs = f.latencyNs;
            break;
          case FrameType::Bye:
            // Orderly exit mid-run still means this peer will never
            // produce tokens again: degrade its links.
            peerLost(peer, round, round_start, "peer shard exited");
            if (!peer.stats.alive)
                return; // peerLost reset the buffers; pos is stale
            break;
        }
    }
    // Consumed bytes stay in place behind rxPos (no per-frame
    // memmove); compactRx reclaims them when cheap or overdue.
    peer.rxPos = pos;
    compactRx(peer);
}

void
ShardTransport::synthesizeMissing(uint64_t round)
{
    // A dead peer's links keep the token protocol alive with empty
    // batches — the same graceful degradation the fabric applies to a
    // down endpoint, so the surviving shard stays cycle-exact.
    for (auto &b : rxBindings) {
        while (b.pushed <= round) {
            FS_ASSERT(!peers[b.peerIdx].stats.alive,
                      "live peer rank %u missed round %llu on link %u",
                      ranks[b.peerIdx], (unsigned long long)round,
                      b.linkId);
            b.chan->push(TokenBatch(
                b.nextStart, static_cast<uint32_t>(b.chan->quantum())));
            b.nextStart += b.chan->quantum();
            ++b.pushed;
        }
    }
}

void
ShardTransport::onRoundComplete(uint64_t round, Cycles round_start)
{
    // Phase 1: flush. Batches were appended by onTxBatch during the
    // commit phase; cap the round with a RoundDone marker and send the
    // whole round as one write per peer.
    uint64_t latency_ns = latencyFn ? latencyFn() : 0;
    for (Peer &peer : peers) {
        if (!peer.stats.alive)
            continue;
        encodeRoundDone(peer.txBuf, round, round_start, latency_ns);
        if (!sendAllLink(peer, peer.txBuf))
            peerLost(peer, round, round_start, "send failed");
        // clear() keeps the allocation: the next round's frames reuse
        // this capacity instead of re-growing from scratch.
        peer.txBuf.clear();
    }

    // Phase 2: barrier. Wait for every live peer's RoundDone for this
    // round, consuming batches as they arrive. One loop: probe every
    // peer still holding the barrier open, settle those that are done
    // (or lost — loss also ends the wait), and park on the first one
    // still pending, for at most kParkSlice. stallNs is attributed per
    // peer as the wall-clock from barrier entry until *that* peer
    // settles: the peer that keeps the barrier open longest shows the
    // largest stall. Bounded by recvTimeoutMs: a vanished peer
    // degrades (or aborts under failFast) instead of hanging us.
    auto barrier_t0 = SteadyClock::now();
    auto give_up = barrier_t0 + std::chrono::milliseconds(opts.recvTimeoutMs);
    auto holding = [](const Peer &peer) {
        return peer.stats.alive && !peer.roundDone;
    };
    auto probe = [&](Peer &peer) {
        drainFrames(peer, round, round_start); // already-buffered bytes
        if (!holding(peer))
            return;
        long n = pumpRx(peer);
        if (n > 0)
            drainFrames(peer, round, round_start);
        else if (n < 0)
            peerLost(peer, round, round_start, "peer closed connection");
    };
    auto settle = [&](Peer &peer) {
        peer.stats.stallNs += static_cast<uint64_t>(elapsedNs(barrier_t0));
    };

    for (Peer &peer : peers)
        peer.roundDone = false;
    for (;;) {
        Peer *park = nullptr;
        for (Peer &peer : peers) {
            if (!holding(peer))
                continue;
            probe(peer);
            if (!holding(peer))
                settle(peer);
            else if (!park)
                park = &peer;
        }
        if (!park)
            break;
        auto now = SteadyClock::now();
        if (now < give_up) {
            park->link->waitReadable(std::min(give_up, now + kParkSlice));
            continue;
        }
        for (Peer &peer : peers) {
            if (holding(peer)) {
                peerLost(peer, round, round_start, "barrier timeout");
                settle(peer);
            }
        }
        break;
    }

    // Phase 3: fill in for the dead, if any.
    synthesizeMissing(round);
}

void
ShardTransport::shutdown()
{
    if (shutdownDone)
        return;
    shutdownDone = true;
    std::string bye;
    encodeBye(bye);
    for (Peer &peer : peers) {
        if (!peer.link)
            continue;
        if (peer.stats.alive && peer.link->isOpen()) {
            // Best effort: the peer may already be gone.
            sendAllLink(peer, bye);
        }
        peer.link->close();
    }
}

} // namespace firesim
