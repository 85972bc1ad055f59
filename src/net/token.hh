/**
 * @file
 * Simulation tokens and token batches (paper Section III-B2).
 *
 * On a simulated link the fundamental unit of data is a token
 * representing one target cycle's worth of link activity. A token either
 * carries 64 bits of payload (a "flit") plus a `last` marker, or it is
 * empty (the endpoint sent nothing that cycle). For a link of latency N,
 * N tokens are always in flight.
 *
 * Host-transport batching: FireSim always moves one link-latency's worth
 * of tokens at a time. We represent a batch sparsely — only non-empty
 * tokens are stored, with their cycle offset inside the batch. This is an
 * implementation optimization only: the cycle at which every flit crosses
 * the link is preserved exactly, so simulation results are bit- and
 * cycle-identical to a dense representation (property-tested).
 */

#ifndef FIRESIM_NET_TOKEN_HH
#define FIRESIM_NET_TOKEN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace firesim
{

/** Payload width of one token in bytes (64 bits, per the paper). */
constexpr uint32_t kFlitBytes = 8;

/** One non-empty token: up to 8 payload bytes plus transport metadata. */
struct Flit
{
    /** Cycle offset of this token within its batch. */
    uint32_t offset = 0;
    /** True when this token ends an Ethernet frame. */
    bool last = false;
    /** Number of valid payload bytes (1..8). */
    uint8_t size = 0;
    /** Payload bytes; bytes >= size are zero. */
    std::array<uint8_t, kFlitBytes> data{};
};

/**
 * One host-transport batch: `len` target cycles of link activity
 * beginning at absolute target cycle `start`. Flits are kept sorted by
 * offset, and at most one flit exists per offset (one token per cycle).
 */
struct TokenBatch
{
    Cycles start = 0;
    uint32_t len = 0;
    std::vector<Flit> flits;

    TokenBatch() = default;
    TokenBatch(Cycles start_cycle, uint32_t length)
        : start(start_cycle), len(length)
    {}

    /** Append a flit; offsets must be strictly increasing and < len. */
    void
    push(const Flit &flit)
    {
        FS_ASSERT(flit.offset < len, "flit offset %u outside batch len %u",
                  flit.offset, len);
        FS_ASSERT(flits.empty() || flits.back().offset < flit.offset,
                  "flit offsets must be strictly increasing");
        FS_ASSERT(flit.size >= 1 && flit.size <= kFlitBytes,
                  "flit size %u invalid", flit.size);
        flits.push_back(flit);
    }

    /** Empty the batch for reuse (keeping flit capacity) and restamp
     *  it to cover `length` cycles from `start_cycle`. */
    TokenBatch &
    reset(Cycles start_cycle, uint32_t length)
    {
        start = start_cycle;
        len = length;
        flits.clear();
        return *this;
    }

    /** Empty when the flits keep push()'s invariants, else why not. */
    std::string
    flitError() const
    {
        for (size_t i = 0; i < flits.size(); ++i) {
            const Flit &f = flits[i];
            if (f.offset >= len)
                return csprintf("flit offset %u outside batch len %u",
                                f.offset, len);
            if (i > 0 && flits[i - 1].offset >= f.offset)
                return "flit offsets must be strictly increasing";
            if (f.size < 1 || f.size > kFlitBytes)
                return csprintf("flit size %u invalid", f.size);
        }
        return {};
    }

    /** Absolute target cycle of a flit in this batch. */
    Cycles absCycle(const Flit &flit) const { return start + flit.offset; }

    /** True when the batch carries no payload (all tokens empty). */
    bool isEmpty() const { return flits.empty(); }
};

} // namespace firesim

#endif // FIRESIM_NET_TOKEN_HH
