/**
 * @file
 * Wire framing for the distributed token fabric (paper Section III-B:
 * the TCP leg of FireSim's PCIe/shared-memory/TCP transport split).
 *
 * The unit of transfer is exactly the fabric's unit of simulation
 * transfer: one latency-sized token batch. Frames ride a byte stream
 * (TCP or an AF_UNIX socketpair); each frame is
 *
 *     [type : 1 byte][payload-length : varint][payload]
 *
 * so a receiver can always resynchronize on frame boundaries without
 * understanding every type. Payloads reuse the instruction-trace
 * varint/zigzag primitives (base/varint.hh):
 *
 *  - Hello:     protocol version, rank, shard count, topology hash.
 *               Exchanged once per connection; a hash mismatch means
 *               the two processes were launched with different
 *               topologies or configs and must abort loudly.
 *  - Batch:     link id, production start cycle, batch length, then
 *               the flits as (offset-delta+1 varint, meta byte,
 *               payload bytes). Empty batches — the common case on an
 *               idle link — are 4-6 bytes.
 *  - RoundDone: round number, round-start cycle (varints), and the
 *               sender's recent per-round host latency (EWMA,
 *               nanoseconds) as 8 little-endian bytes. One per peer
 *               per round, after that round's batches: the round
 *               barrier, a desync check, and — via the latency field —
 *               the input to cross-shard straggler detection. The
 *               latency is host timing, so it has a fixed width: a
 *               job's transport byte count must not depend on it.
 *  - Bye:       orderly shutdown (distinguishes a finished peer from
 *               a crashed one).
 *
 * Determinism: encoding is a pure function of the batch contents, and
 * decoding reconstructs them exactly (property-tested in tests/dist),
 * so carrying a channel over sockets cannot perturb simulation state.
 */

#ifndef FIRESIM_NET_REMOTE_WIRE_HH
#define FIRESIM_NET_REMOTE_WIRE_HH

#include <cstdint>
#include <string>

#include "net/token.hh"

namespace firesim
{

/** Bump when the frame layout changes; checked in Hello.
 *  v2: RoundDone carries the sender's round-latency EWMA; Stats
 *  frames piggyback telemetry snapshots on the barrier.
 *  v3: Hello carries the sender's transport preference and a host
 *  token so the rendezvous can negotiate the shared-memory fabric
 *  for same-host peers (--shard-transport=auto).
 *  v4: Stats frames are retired; type byte 5 is unknown again.
 *  v5: RoundDone's latency is 8 fixed little-endian bytes, not a
 *  varint. */
constexpr uint32_t kWireVersion = 5;

enum class FrameType : uint8_t
{
    Hello = 1,
    Batch = 2,
    RoundDone = 3,
    Bye = 4,
};

/** One decoded frame; `type` selects which fields are meaningful. */
struct Frame
{
    FrameType type = FrameType::Bye;
    // Hello
    uint32_t version = 0;
    uint32_t rank = 0;
    uint32_t shards = 0;
    uint64_t topoHash = 0;
    uint32_t transport = 0; //!< sender's TransportKind preference
    uint64_t hostToken = 0; //!< hash identifying the sender's host
    // Batch
    uint32_t linkId = 0;
    TokenBatch batch;
    // RoundDone
    uint64_t round = 0;
    Cycles cycle = 0;
    uint64_t latencyNs = 0; //!< sender's per-round host latency EWMA
};

/** @p transport is the sender's TransportKind preference and
 *  @p host_token identifies its host (localHostToken()) — together
 *  they let the rendezvous negotiate shm for same-host peers. */
void encodeHello(std::string &out, uint32_t rank, uint32_t shards,
                 uint64_t topo_hash, uint32_t transport = 0,
                 uint64_t host_token = 0);

/** @p batch carries its *production* start cycle (pre-restamp). */
void encodeBatch(std::string &out, uint32_t link_id,
                 const TokenBatch &batch);

/** @p latency_ns is the sender's per-round host-latency EWMA. */
void encodeRoundDone(std::string &out, uint64_t round, Cycles cycle,
                     uint64_t latency_ns = 0);

void encodeBye(std::string &out);

/**
 * Decode the next complete frame from @p in at @p pos. Returns false
 * and leaves @p pos unchanged when the buffer ends mid-frame (read
 * more bytes and retry); panics with a "wire:" message on a malformed
 * frame — a framing error on an established connection is corruption,
 * not congestion. Every read stays inside @p in and every field inside
 * its frame (fuzzed in tests/dist/wire_fuzz_test).
 */
bool decodeFrame(const std::string &in, size_t &pos, Frame &out);

} // namespace firesim

#endif // FIRESIM_NET_REMOTE_WIRE_HH
