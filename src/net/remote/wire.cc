#include "net/remote/wire.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/varint.hh"

namespace firesim
{

namespace
{

/** Flit meta byte: payload size (1..8) in the low nibble, `last` in
 *  bit 7. Sizes are validated on decode so a corrupt stream cannot
 *  smuggle an invalid flit into a TokenBatch. */
constexpr uint8_t kLastBit = 0x80;

/** RoundDone's latency field: little-endian, this many bytes. */
constexpr int kLatencyBytes = 8;

void
beginFrame(std::string &out, FrameType type, const std::string &payload)
{
    out.push_back(static_cast<char>(type));
    putVarint(out, payload.size());
    out.append(payload);
}

/**
 * Read one varint from @p in at @p p that must end before @p end,
 * advancing @p p. False when the bytes run out first; a >64-bit
 * encoding is corruption and panics.
 */
bool
tryGetField(const std::string &in, size_t &p, size_t end, uint64_t &out)
{
    uint64_t v = 0;
    for (uint32_t shift = 0; p < end; shift += 7) {
        if (shift > 63)
            panic("wire: over-long varint at byte %zu", p);
        uint8_t byte = static_cast<uint8_t>(in[p++]);
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            out = v;
            return true;
        }
    }
    return false;
}

/** A payload field: running past the frame end is corruption. */
uint64_t
getField(const std::string &in, size_t &p, size_t frame_end)
{
    uint64_t v;
    if (!tryGetField(in, p, frame_end, v))
        panic("wire: varint field runs past the frame end at byte %zu",
              p);
    return v;
}

} // namespace

void
encodeHello(std::string &out, uint32_t rank, uint32_t shards,
            uint64_t topo_hash, uint32_t transport, uint64_t host_token)
{
    std::string p;
    putVarint(p, kWireVersion);
    putVarint(p, rank);
    putVarint(p, shards);
    putVarint(p, topo_hash);
    putVarint(p, transport);
    putVarint(p, host_token);
    beginFrame(out, FrameType::Hello, p);
}

void
encodeBatch(std::string &out, uint32_t link_id, const TokenBatch &batch)
{
    // Encoded once per cross-shard link per round: reuse the payload
    // scratch so the steady-state flush allocates nothing.
    thread_local std::string p;
    p.clear();
    putVarint(p, link_id);
    putVarint(p, batch.start);
    putVarint(p, batch.len);
    putVarint(p, batch.flits.size());
    uint32_t prev = 0;
    bool first = true;
    for (const Flit &f : batch.flits) {
        // Offsets are strictly increasing; delta+1 keeps the first
        // flit's encoding uniform (offset 0 -> delta 1).
        uint32_t delta = first ? f.offset + 1 : f.offset - prev;
        first = false;
        prev = f.offset;
        putVarint(p, delta);
        uint8_t meta =
            static_cast<uint8_t>(f.size) | (f.last ? kLastBit : 0);
        p.push_back(static_cast<char>(meta));
        p.append(reinterpret_cast<const char *>(f.data.data()), f.size);
    }
    beginFrame(out, FrameType::Batch, p);
}

void
encodeRoundDone(std::string &out, uint64_t round, Cycles cycle,
                uint64_t latency_ns)
{
    thread_local std::string p;
    p.clear();
    putVarint(p, round);
    putVarint(p, cycle);
    // Fixed width: the latency is host-measured, and a varint would
    // make the frame's size, and so the transport's byte count, vary
    // between identical jobs.
    for (int b = 0; b < kLatencyBytes; ++b)
        p.push_back(static_cast<char>(latency_ns >> (8 * b)));
    beginFrame(out, FrameType::RoundDone, p);
}

void
encodeBye(std::string &out)
{
    beginFrame(out, FrameType::Bye, std::string());
}

bool
decodeFrame(const std::string &in, size_t &pos, Frame &out)
{
    size_t p = pos;
    if (p >= in.size())
        return false;
    uint8_t type_byte = static_cast<uint8_t>(in[p++]);
    uint64_t plen;
    if (!tryGetField(in, p, in.size(), plen))
        return false;
    // plen is peer-controlled: compare against what is buffered, so a
    // near-2^64 length cannot wrap p + plen past the check.
    if (plen > in.size() - p)
        return false; // frame body not fully buffered yet
    size_t frame_end = p + plen;

    out = Frame{};
    switch (static_cast<FrameType>(type_byte)) {
      case FrameType::Hello: {
        out.type = FrameType::Hello;
        out.version = static_cast<uint32_t>(getField(in, p, frame_end));
        out.rank = static_cast<uint32_t>(getField(in, p, frame_end));
        out.shards = static_cast<uint32_t>(getField(in, p, frame_end));
        out.topoHash = getField(in, p, frame_end);
        out.transport =
            static_cast<uint32_t>(getField(in, p, frame_end));
        out.hostToken = getField(in, p, frame_end);
        break;
      }
      case FrameType::Batch: {
        out.type = FrameType::Batch;
        out.linkId = static_cast<uint32_t>(getField(in, p, frame_end));
        out.batch.start = getField(in, p, frame_end);
        out.batch.len = static_cast<uint32_t>(getField(in, p, frame_end));
        uint64_t nflits = getField(in, p, frame_end);
        if (nflits > out.batch.len)
            panic("wire: batch frame with %llu flits but len %u",
                  (unsigned long long)nflits, out.batch.len);
        // nflits is peer-controlled: clamp the reserve to what the
        // frame body can hold (a flit takes at least 3 bytes).
        out.batch.flits.reserve(std::min<uint64_t>(
            nflits, p < frame_end ? (frame_end - p) / 3 : 0));
        uint32_t offset = 0;
        for (uint64_t i = 0; i < nflits; ++i) {
            if (p >= frame_end)
                panic("wire: truncated flit offset");
            uint64_t delta = getField(in, p, frame_end);
            if (delta == 0)
                panic("wire: zero flit-offset delta");
            offset += static_cast<uint32_t>(delta);
            Flit f;
            f.offset = offset - 1;
            if (p >= frame_end)
                panic("wire: truncated flit meta");
            uint8_t meta = static_cast<uint8_t>(in[p++]);
            f.last = (meta & kLastBit) != 0;
            f.size = meta & 0x7f;
            if (f.size < 1 || f.size > kFlitBytes)
                panic("wire: invalid flit size %u", f.size);
            if (p + f.size > frame_end)
                panic("wire: truncated flit payload");
            for (uint8_t b = 0; b < f.size; ++b)
                f.data[b] = static_cast<uint8_t>(in[p++]);
            if (f.offset >= out.batch.len)
                panic("wire: flit offset %u outside batch len %u",
                      f.offset, out.batch.len);
            out.batch.flits.push_back(f);
        }
        break;
      }
      case FrameType::RoundDone: {
        out.type = FrameType::RoundDone;
        out.round = getField(in, p, frame_end);
        out.cycle = getField(in, p, frame_end);
        if (frame_end - p < kLatencyBytes)
            panic("wire: truncated round latency at byte %zu", p);
        for (int b = 0; b < kLatencyBytes; ++b)
            out.latencyNs |= static_cast<uint64_t>(
                                 static_cast<uint8_t>(in[p++]))
                             << (8 * b);
        break;
      }
      case FrameType::Bye: {
        out.type = FrameType::Bye;
        break;
      }
      default:
        panic("wire: unknown frame type %u", type_byte);
    }
    if (p != frame_end)
        panic("wire: frame payload length mismatch (%zu != %zu)", p,
              frame_end);
    pos = frame_end;
    return true;
}

} // namespace firesim
