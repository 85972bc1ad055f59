/**
 * @file
 * Inline (de)serializers for the base-layer value types that appear
 * inside many component snapshots: RNG streams, counters, histograms,
 * running stats. Components call these from their snapshotSave /
 * snapshotRestore methods so every module encodes these types the
 * same way — base itself stays free of any snapshot dependency.
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
restoreRandom(Deserializer &d, Random &rng)
{
    uint64_t st[4];
    for (auto &w : st)
        w = d.getFixed64();
    if (d.ok())
        rng.restoreState(st);
}

inline void
saveCounter(Serializer &s, const Counter &c)
{
    s.putU(c.value());
}

inline void
restoreCounter(Deserializer &d, Counter &c)
{
    c.set(d.getU());
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
restoreRunningStat(Deserializer &d, RunningStat &r)
{
    double sum = d.getD();
    uint64_t n = d.getU();
    double lo = d.getD();
    double hi = d.getD();
    if (d.ok())
        r.restoreState(sum, n, lo, hi);
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

inline void
restoreHistogram(Deserializer &d, Histogram &h)
{
    double sum = d.getD();
    uint64_t n = d.getU();
    double lo = d.getD();
    double hi = d.getD();
    restoreRandom(d, h.reservoirRng());
    uint64_t count = d.getU();
    std::vector<double> vals;
    if (d.ok())
        vals.reserve(count);
    for (uint64_t i = 0; i < count && d.ok(); ++i)
        vals.push_back(d.getD());
    if (d.ok())
        h.restoreState(std::move(vals), sum, n, lo, hi);
}

} // namespace firesim

#endif // FIRESIM_SNAPSHOT_STATE_IO_HH
