/**
 * @file
 * Snapshot serializers for the token-fabric value types: flits,
 * token batches, Ethernet frames, and frame-assembler partial state.
 * Header-only so every module that snapshots link state (nic, switch,
 * fault, net) encodes these identically.
 */

#ifndef FIRESIM_NET_TOKEN_IO_HH
#define FIRESIM_NET_TOKEN_IO_HH

#include "net/eth.hh"
#include "net/token.hh"
#include "snapshot/serial.hh"

namespace firesim
{

inline void
saveFlit(Serializer &s, const Flit &f)
{
    s.putU(f.offset);
    s.putB(f.last);
    s.putU(f.size);
    s.putBytes(f.data.data(), f.data.size());
}

inline void
saveBatch(Serializer &s, const TokenBatch &b)
{
    s.putU(b.start);
    s.putU(b.len);
    s.putU(b.flits.size());
    for (const Flit &f : b.flits)
        saveFlit(s, f);
}

inline void
saveFrame(Serializer &s, const EthFrame &f)
{
    s.putU(f.timestamp);
    s.putBytes(f.bytes.data(), f.bytes.size());
}

inline void
saveAssembler(Serializer &s, const FrameAssembler &a)
{
    const auto &p = a.partialBytes();
    s.putBytes(p.data(), p.size());
}

} // namespace firesim

#endif // FIRESIM_NET_TOKEN_IO_HH
