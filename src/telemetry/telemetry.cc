#include "telemetry/telemetry.hh"

#include <cstdio>

#include "base/logging.hh"

namespace firesim
{

Telemetry::Telemetry(TelemetryConfig config)
    : cfg(std::move(config))
{}

void
Telemetry::attach(TokenFabric &fabric)
{
    FS_ASSERT(!attached, "telemetry attached to a fabric twice");
    attached = true;
    if (cfg.samplePeriod) {
        sampler_ = std::make_unique<AutoCounterSampler>(
            reg, cfg.samplePeriod);
        sampler_->attachTo(fabric);
    }
    debug("telemetry attached: %zu stats, sample period %llu",
          reg.size(), (unsigned long long)cfg.samplePeriod);
}

void
Telemetry::dumpAtExit(Cycles now)
{
    if (cfg.dumpDir.empty())
        return;
    std::string dir = cfg.dumpDir;
    if (dir.back() != '/')
        dir += '/';

    std::string stats_path = dir + "stats.json";
    std::FILE *f = std::fopen(stats_path.c_str(), "wb");
    if (!f) {
        warn("telemetry dump dir '%s' not writable; skipping dump",
             cfg.dumpDir.c_str());
        return;
    }
    std::string doc = reg.dumpJson(now);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    inform("telemetry: %zu stats dumped to %s", reg.size(),
           stats_path.c_str());

    if (sampler_) {
        std::string csv_path = dir + "autocounter.csv";
        std::FILE *c = std::fopen(csv_path.c_str(), "wb");
        if (c) {
            std::string csv = sampler_->csv();
            std::fwrite(csv.data(), 1, csv.size(), c);
            std::fclose(c);
            inform("telemetry: %zu AutoCounter samples dumped to %s",
                   sampler_->series().size(), csv_path.c_str());
        }
    }
}

} // namespace firesim
