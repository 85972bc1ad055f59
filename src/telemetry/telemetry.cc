#include "telemetry/telemetry.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"

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
        path = rankPath(dir + name, shards, rank);
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

std::string
rankPath(const std::string &path, uint64_t shards, uint64_t rank)
{
    if (shards <= 1)
        return path;
    return csprintf("%s.rank%llu", path.c_str(),
                    (unsigned long long)rank);
}

std::string
atomicWriteFile(const std::string &path, const std::string &bytes,
                const char *what)
{
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return csprintf("%s: cannot create %s: %s", what, tmp.c_str(),
                        strerror(errno));
    }
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int e = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            return csprintf("%s: write to %s failed: %s", what,
                            tmp.c_str(), strerror(e));
        }
        off += static_cast<size_t>(n);
    }
    // fsync before rename: the rename must not become visible before
    // the data is durable, or a crash could leave a valid-looking
    // file with garbage contents.
    if (::fsync(fd) != 0) {
        int e = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        return csprintf("%s: fsync %s failed: %s", what, tmp.c_str(),
                        strerror(e));
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return csprintf("%s: close %s failed: %s", what, tmp.c_str(),
                        strerror(errno));
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int e = errno;
        ::unlink(tmp.c_str());
        return csprintf("%s: rename %s -> %s failed: %s", what,
                        tmp.c_str(), path.c_str(), strerror(e));
    }
    return {};
}

} // namespace firesim
