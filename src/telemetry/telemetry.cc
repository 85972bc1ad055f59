#include "telemetry/telemetry.hh"

#include "base/logging.hh"
#include "snapshot/snapshot.hh"

namespace firesim
{

Telemetry::Telemetry(TelemetryConfig config, uint32_t shard_count,
                     uint32_t shard_rank)
    : cfg(std::move(config)), shards(shard_count), rank(shard_rank)
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
    // Writes @p bytes to dir/<name>, rank-suffixed; false after a warning.
    auto dump = [&](const char *name, const std::string &bytes,
                    std::string &path) {
        path = snapshotRankPath(dir + name, shards, rank);
        std::string err = atomicWriteFile(path, bytes, "telemetry dump");
        if (!err.empty())
            warn("%s", err.c_str());
        return err.empty();
    };

    std::string path;
    if (dump("stats.json", reg.dumpJson(now), path))
        inform("telemetry: %zu stats dumped to %s", reg.size(),
               path.c_str());
    if (sampler_ && dump("autocounter.csv", sampler_->csv(), path))
        inform("telemetry: %zu AutoCounter samples dumped to %s",
               sampler_->series().size(), path.c_str());
}

} // namespace firesim
