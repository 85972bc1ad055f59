#include "telemetry/auto_counter.hh"

#include "base/logging.hh"
#include "snapshot/serial.hh"

namespace firesim
{

AutoCounterSampler::AutoCounterSampler(const StatRegistry &registry,
                                       Cycles period)
    : reg(registry), per(period), nextAt(period)
{
    if (period == 0)
        fatal("AutoCounter sample period must be nonzero");
}

void
AutoCounterSampler::attachTo(TokenFabric &fabric)
{
    quantum = fabric.quantum();
    FS_ASSERT(quantum > 0, "attachTo() before fabric finalize()");
    fabric.addObserver(this);
}

void
AutoCounterSampler::sampleNow(Cycles at)
{
    if (cols.empty()) {
        cols = reg.names();
    } else if (cols.size() != reg.size()) {
        panic("stat registry grew from %zu to %zu stats after the "
              "AutoCounter series started; register everything before "
              "the first sample",
              cols.size(), reg.size());
    }
    samples.push_back({at, reg.values()});
    debug("autocounter: sampled %zu stats at cycle %llu", cols.size(),
          (unsigned long long)at);
}

void
AutoCounterSampler::onRoundEnd(Cycles round_start, uint64_t round)
{
    (void)round;
    Cycles round_end = round_start + quantum;
    while (nextAt <= round_end) {
        sampleNow(nextAt);
        nextAt += per;
    }
}

std::vector<double>
AutoCounterSampler::deltaSeries(const std::string &name) const
{
    size_t col = cols.size();
    for (size_t i = 0; i < cols.size(); ++i)
        if (cols[i] == name)
            col = i;
    if (col == cols.size())
        panic("AutoCounter series has no column '%s'", name.c_str());
    std::vector<double> out;
    out.reserve(samples.size());
    double prev = 0.0;
    for (const Sample &s : samples) {
        out.push_back(s.values[col] - prev);
        prev = s.values[col];
    }
    return out;
}

std::string
AutoCounterSampler::csv() const
{
    std::string out = "cycle";
    for (const std::string &c : cols)
        out += "," + StatRegistry::csvField(c);
    out += "\n";
    for (const Sample &s : samples) {
        out += csprintf("%llu", (unsigned long long)s.at);
        for (double v : s.values)
            out += "," + StatRegistry::formatValue(v);
        out += "\n";
    }
    return out;
}

// ---- State image ----------------------------------------------------

void
AutoCounterSampler::snapshotSave(Serializer &s) const
{
    s.putU(per);
    s.putU(quantum);
    s.putU(nextAt);
    std::vector<size_t> simulated;
    for (size_t i = 0; i < cols.size(); ++i)
        if (!isHostTimingStat(cols[i]))
            simulated.push_back(i);
    s.putU(simulated.size());
    for (size_t i : simulated)
        s.putStr(cols[i]);
    s.putU(samples.size());
    for (const Sample &smp : samples) {
        s.putU(smp.at);
        for (size_t i : simulated)
            s.putD(smp.values[i]);
    }
}

} // namespace firesim
