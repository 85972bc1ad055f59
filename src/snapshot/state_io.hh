/**
 * @file
 * Inline serializers for the base-layer value types that appear
 * inside many component snapshots: RNG streams, counters, histograms,
 * running stats. Components call these from their snapshotSave
 * methods so every module encodes these types the same way — base
 * itself stays free of any snapshot dependency.
 */

#ifndef FIRESIM_SNAPSHOT_STATE_IO_HH
#define FIRESIM_SNAPSHOT_STATE_IO_HH

#include "base/random.hh"
#include "base/stats.hh"
#include "snapshot/serial.hh"

namespace firesim
{

inline void
saveRandom(Serializer &s, const Random &rng)
{
    uint64_t st[4];
    rng.saveState(st);
    for (uint64_t w : st)
        s.putFixed64(w);
}

inline void
saveCounter(Serializer &s, const Counter &c)
{
    s.putU(c.value());
}

inline void
saveRunningStat(Serializer &s, const RunningStat &r)
{
    s.putD(r.rawSum());
    s.putU(r.count());
    s.putD(r.rawMin());
    s.putD(r.rawMax());
}

inline void
saveHistogram(Serializer &s, const Histogram &h)
{
    s.putD(h.rawSum());
    s.putU(h.count());
    s.putD(h.rawMin());
    s.putD(h.rawMax());
    saveRandom(s, h.reservoirRng());
    const auto &vals = h.samples();
    s.putU(vals.size());
    for (double v : vals)
        s.putD(v);
}

} // namespace firesim

#endif // FIRESIM_SNAPSHOT_STATE_IO_HH
