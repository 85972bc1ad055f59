#include "mem/cache.hh"

#include "base/logging.hh"
#include "snapshot/state_io.hh"

namespace firesim
{

Cache::Cache(CacheConfig config, Cache *parent_cache, DramModel *dram_model)
    : cfg(std::move(config)), parent(parent_cache), dram(dram_model)
{
    if (cfg.lineBytes == 0 || (cfg.lineBytes & (cfg.lineBytes - 1)))
        fatal("cache '%s': line size must be a power of two",
              cfg.name.c_str());
    if (cfg.sizeBytes % (static_cast<uint64_t>(cfg.ways) * cfg.lineBytes))
        fatal("cache '%s': size not divisible by ways*line",
              cfg.name.c_str());
    if (!parent && !dram)
        fatal("cache '%s' needs a parent level or a DRAM model",
              cfg.name.c_str());
    sets = static_cast<uint32_t>(cfg.sizeBytes /
                                 (static_cast<uint64_t>(cfg.ways) *
                                  cfg.lineBytes));
    if (sets == 0 || (sets & (sets - 1)))
        fatal("cache '%s': set count %u must be a power of two",
              cfg.name.c_str(), sets);
    while ((1u << lineShift) < cfg.lineBytes)
        ++lineShift;
    while ((1u << setShift) < sets)
        ++setShift;
    setMask = sets - 1;
    lines.assign(static_cast<size_t>(sets) * cfg.ways, Line{});
}

void
Cache::flush()
{
    for (auto &line : lines)
        line = Line{};
    lastFetchLineNo = ~0ULL;
    lastFetchLine = nullptr;
}

Cycles
Cache::fillFromParent(uint64_t line_addr, Cycles now)
{
    if (parent)
        return parent->access(line_addr, cfg.lineBytes, false, now);
    return dram->access(line_addr, false, now);
}

Cycles
Cache::accessLine(uint64_t line_addr, bool is_write, Cycles now)
{
    uint64_t line_no = line_addr >> lineShift;
    uint32_t set = static_cast<uint32_t>(line_no & setMask);
    uint64_t tag = line_no >> setShift;
    Line *base = &lines[static_cast<size_t>(set) * cfg.ways];

    for (uint32_t w = 0; w < cfg.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            ++stats_.hits;
            line.lru = ++lruTick;
            if (is_write)
                line.dirty = true;
            return cfg.hitLatency;
        }
    }

    // Miss: pick an invalid way if any, else the LRU victim. The fill
    // below may displace the memoized fetch line, so drop the memo.
    lastFetchLineNo = ~0ULL;
    lastFetchLine = nullptr;
    ++stats_.misses;
    Line *victim = base;
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }

    Cycles latency = cfg.hitLatency;
    if (victim->valid && victim->dirty) {
        // Write-back of the victim line. Timing: the writeback shares
        // the miss path; charge the parent's write occupancy but let
        // the fill overlap it (common victim-buffer design), so only
        // the fill latency is on the critical path.
        ++stats_.writebacks;
        uint64_t victim_addr =
            (victim->tag * sets + set) * cfg.lineBytes;
        if (parent)
            parent->access(victim_addr, cfg.lineBytes, true, now);
        else
            dram->access(victim_addr, true, now);
    }

    latency += fillFromParent(line_addr, now + cfg.hitLatency);

    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = ++lruTick;
    return latency;
}

Cycles
Cache::access(uint64_t addr, uint32_t bytes, bool is_write, Cycles now)
{
    FS_ASSERT(bytes > 0, "zero-byte cache access");
    uint64_t first_line = addr >> lineShift;
    uint64_t last_line = (addr + bytes - 1) >> lineShift;
    Cycles total = 0;
    for (uint64_t line = first_line; line <= last_line; ++line)
        total += accessLine(line << lineShift, is_write, now + total);
    return total;
}

MemHierarchy::MemHierarchy(uint32_t cores, DramConfig dram_cfg)
    : dram_(dram_cfg)
{
    if (cores == 0)
        fatal("memory hierarchy needs at least one core");
    CacheConfig l2c;
    l2c.name = "l2";
    l2c.sizeBytes = 256 * KiB;
    l2c.ways = 8;
    l2c.hitLatency = 12;
    l2_ = std::make_unique<Cache>(l2c, nullptr, &dram_);

    for (uint32_t c = 0; c < cores; ++c) {
        CacheConfig ic;
        ic.name = csprintf("l1i%u", c);
        ic.sizeBytes = 16 * KiB;
        ic.ways = 4;
        ic.hitLatency = 1;
        l1is.push_back(std::make_unique<Cache>(ic, l2_.get(), nullptr));

        CacheConfig dc;
        dc.name = csprintf("l1d%u", c);
        dc.sizeBytes = 16 * KiB;
        dc.ways = 4;
        dc.hitLatency = 2;
        l1ds.push_back(std::make_unique<Cache>(dc, l2_.get(), nullptr));
    }
}

Cycles
MemHierarchy::fetch(uint32_t core, uint64_t addr, Cycles now)
{
    return l1is.at(core)->access(addr, 4, false, now);
}

Cycles
MemHierarchy::data(uint32_t core, uint64_t addr, uint32_t bytes,
                   bool is_write, Cycles now)
{
    return l1ds.at(core)->access(addr, bytes, is_write, now);
}

void
Cache::registerStats(StatRegistry &registry,
                     const std::string &prefix) const
{
    registry.registerCounter(prefix + ".hits", stats_.hits);
    registry.registerCounter(prefix + ".misses", stats_.misses);
    registry.registerCounter(prefix + ".writebacks", stats_.writebacks);
    const CacheStats *s = &stats_;
    registry.registerProbe(prefix + ".missRate",
                           [s] { return s->missRate(); });
}

void
MemHierarchy::registerStats(StatRegistry &registry,
                            const std::string &prefix) const
{
    for (size_t c = 0; c < l1is.size(); ++c) {
        l1is[c]->registerStats(registry,
                               csprintf("%s.l1i%zu", prefix.c_str(), c));
        l1ds[c]->registerStats(registry,
                               csprintf("%s.l1d%zu", prefix.c_str(), c));
    }
    l2_->registerStats(registry, prefix + ".l2");

    const DramStats &d = dram_.stats();
    registry.registerCounter(prefix + ".dram.reads", d.reads);
    registry.registerCounter(prefix + ".dram.writes", d.writes);
    registry.registerCounter(prefix + ".dram.rowHits", d.rowHits);
    registry.registerCounter(prefix + ".dram.rowMisses", d.rowMisses);
    registry.registerCounter(prefix + ".dram.rowConflicts",
                             d.rowConflicts);
}

void
Cache::snapshotSave(Serializer &s) const
{
    s.putU(sets);
    s.putU(cfg.ways);
    s.putU(cfg.lineBytes);
    s.putU(lruTick);
    s.putU(lines.size());
    for (const Line &l : lines) {
        s.putB(l.valid);
        s.putB(l.dirty);
        s.putU(l.tag);
        s.putU(l.lru);
    }
    saveCounter(s, stats_.hits);
    saveCounter(s, stats_.misses);
    saveCounter(s, stats_.writebacks);
}

void
MemHierarchy::snapshotSave(Serializer &s) const
{
    s.putU(l1is.size());
    dram_.snapshotSave(s);
    l2_->snapshotSave(s);
    for (size_t c = 0; c < l1is.size(); ++c) {
        l1is[c]->snapshotSave(s);
        l1ds[c]->snapshotSave(s);
    }
}

} // namespace firesim
