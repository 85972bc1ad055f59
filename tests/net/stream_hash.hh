/**
 * @file
 * Test helper: an FNV-style hash of every batch a fabric's channels
 * carry — channel, stamp, and full flit payload — in commit order,
 * taken through channel taps (TokenFabric::tapChannel). Two runs with
 * identical hashes moved identical token streams through identical
 * channels in the same order: taps run on the driving thread in step
 * order, for any worker count.
 */

#ifndef FIRESIM_TESTS_NET_STREAM_HASH_HH
#define FIRESIM_TESTS_NET_STREAM_HASH_HH

#include <cstdint>

#include "net/fabric.hh"

namespace firesim
{

class StreamHash
{
  public:
    uint64_t hash = 1469598103934665603ull;
    uint64_t transmits = 0;

    /** Tap every local channel of the finalized @p fabric, which makes
     *  every endpoint due every round. */
    void
    tapAll(TokenFabric &fabric)
    {
        for (size_t ep = 0; ep < fabric.endpointCount(); ++ep) {
            for (uint32_t p = 0; p < fabric.endpointAt(ep).numPorts(); ++p) {
                int c = fabric.txChannelOf(ep, p);
                if (c >= 0)
                    fabric.tapChannel(ep, p, [this, c](TokenBatch &batch) {
                        record(static_cast<size_t>(c), batch);
                    });
            }
        }
    }

  private:
    void
    record(size_t channel, const TokenBatch &batch)
    {
        ++transmits;
        mix(channel);
        mix(batch.start);
        mix(batch.len);
        for (const Flit &f : batch.flits) {
            mix(f.offset);
            mix(f.last ? 1 : 0);
            mix(f.size);
            for (uint8_t b : f.data)
                mix(b);
        }
    }

    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull;
    }
};

} // namespace firesim

#endif // FIRESIM_TESTS_NET_STREAM_HASH_HH
