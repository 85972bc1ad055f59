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
    StatSnapshot snap = reg.snapshot(at);
    Sample s;
    s.at = at;
    s.values.reserve(snap.values.size());
    for (const auto &kv : snap.values)
        s.values.push_back(kv.second);
    samples.push_back(std::move(s));
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
        out += "," + c;
    out += "\n";
    for (const Sample &s : samples) {
        out += csprintf("%llu", (unsigned long long)s.at);
        for (double v : s.values)
            out += "," + StatRegistry::formatValue(v);
        out += "\n";
    }
    return out;
}

std::string
AutoCounterSampler::json() const
{
    std::string out =
        csprintf("{\"period\": %llu, \"columns\": [",
                 (unsigned long long)per);
    for (size_t i = 0; i < cols.size(); ++i)
        out += csprintf("%s\"%s\"", i ? ", " : "", cols[i].c_str());
    out += "], \"samples\": [";
    for (size_t i = 0; i < samples.size(); ++i) {
        out += csprintf("%s[%llu", i ? ", " : "",
                        (unsigned long long)samples[i].at);
        for (double v : samples[i].values)
            out += ", " + StatRegistry::formatValue(v);
        out += "]";
    }
    out += "]}";
    return out;
}

// ---- Checkpoint support ---------------------------------------------

void
AutoCounterSampler::snapshotSave(Serializer &s) const
{
    s.putU(per);
    s.putU(quantum);
    s.putU(nextAt);
    s.putU(cols.size());
    std::vector<bool> host(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
        s.putStr(cols[i]);
        host[i] = isHostTimingStat(cols[i]);
    }
    s.putU(samples.size());
    for (const Sample &smp : samples) {
        s.putU(smp.at);
        s.putU(smp.values.size());
        for (size_t i = 0; i < smp.values.size(); ++i)
            s.putD(host[i] ? 0.0 : smp.values[i]);
    }
}

} // namespace firesim
