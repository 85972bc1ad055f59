/**
 * @file
 * Set-associative write-back cache timing model and the Table I
 * hierarchy (16 KiB L1I$ + 16 KiB L1D$ + 256 KiB shared L2$ over
 * DDR3).
 *
 * The Rocket core is in-order and blocking, so a synchronous
 * latency-returning interface is timing-faithful: each access returns
 * the cycles until data is available, updating tag state (LRU) and,
 * on misses, recursing into the next level and finally the DRAM
 * model. Functional data lives in FunctionalMemory; the caches model
 * timing and tag state only (data would be redundant).
 */

#ifndef FIRESIM_MEM_CACHE_HH
#define FIRESIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "mem/dram.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

class Serializer;

struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 16 * KiB;
    uint32_t ways = 4;
    uint32_t lineBytes = 64;
    Cycles hitLatency = 2;
};

struct CacheStats
{
    Counter hits;
    Counter misses;
    Counter writebacks;

    double
    missRate() const
    {
        uint64_t total = hits.value() + misses.value();
        return total ? static_cast<double>(misses.value()) / total : 0.0;
    }
};

/** One cache level; `parent` is the next level (nullptr = DRAM). */
class Cache
{
  public:
    /**
     * @param config geometry and hit latency
     * @param parent next cache level, or nullptr to use @p dram
     * @param dram memory model used when parent is null
     */
    Cache(CacheConfig config, Cache *parent, DramModel *dram);

    /**
     * Access one address (arbitrary alignment within a line) at time
     * @p now. Accesses that straddle a line boundary touch both lines.
     * @return latency in cycles until the data is available.
     */
    Cycles access(uint64_t addr, uint32_t bytes, bool is_write, Cycles now);

    /**
     * Hot-path instruction fetch: a 4-byte aligned access that never
     * straddles a line. Inlined hit scan — identical tag/LRU/counter
     * updates to access(addr, 4, false, now), just without the
     * straddle loop and call overhead.
     */
    Cycles
    fetchAccess(uint64_t addr, Cycles now)
    {
        // A misaligned pc (JALR only clears bit 0) can straddle a line;
        // route that through the general path so timing stays exact.
        if ((addr & (cfg.lineBytes - 1)) + 4 > cfg.lineBytes)
            return access(addr, 4, false, now);
        uint64_t line_no = addr >> lineShift;
        // Sequential fetch memo: straight-line code takes 16 fetches
        // per 64 B line, and only this cache's own fill/evict path
        // (accessLine) can displace the line, which drops the memo. A
        // memo hit performs exactly the bookkeeping of a scan hit.
        if (line_no == lastFetchLineNo) {
            ++stats_.hits;
            lastFetchLine->lru = ++lruTick;
            return cfg.hitLatency;
        }
        Line *base =
            &lines[(static_cast<size_t>(line_no) & setMask) * cfg.ways];
        uint64_t tag = line_no >> setShift;
        for (uint32_t w = 0; w < cfg.ways; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                ++stats_.hits;
                line.lru = ++lruTick;
                lastFetchLineNo = line_no;
                lastFetchLine = &line;
                return cfg.hitLatency;
            }
        }
        return accessLine(line_no << lineShift, false, now);
    }

    /**
     * Hot-path load/store: the common non-straddling case with an
     * inlined hit scan — identical tag/LRU/dirty/counter updates to
     * access(addr, bytes, is_write, now).
     */
    Cycles
    dataAccess(uint64_t addr, uint32_t bytes, bool is_write, Cycles now)
    {
        if ((addr & (cfg.lineBytes - 1)) + bytes > cfg.lineBytes)
            return access(addr, bytes, is_write, now);
        uint64_t line_no = addr >> lineShift;
        Line *base =
            &lines[(static_cast<size_t>(line_no) & setMask) * cfg.ways];
        uint64_t tag = line_no >> setShift;
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
        return accessLine(line_no << lineShift, is_write, now);
    }

    /** Invalidate everything (e.g. between experiment phases). */
    void flush();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg; }

    /** Register hits/misses/writebacks and missRate under @p prefix. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /** Serialize geometry, tag state (valid/dirty/tag/lru per line),
     *  the LRU clock and the counters. */
    void snapshotSave(Serializer &s) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
    };

    Cycles accessLine(uint64_t line_addr, bool is_write, Cycles now);
    Cycles fillFromParent(uint64_t line_addr, Cycles now);

    CacheConfig cfg;
    Cache *parent;
    DramModel *dram;
    CacheStats stats_;
    uint32_t sets;
    // lineBytes and sets are enforced powers of two, so indexing
    // reduces to shifts/masks (the div/mod forms cost real divides in
    // the interpreter's per-instruction fetch).
    uint32_t lineShift = 0;
    uint32_t setShift = 0;
    uint64_t setMask = 0;
    std::vector<Line> lines; //!< sets x ways
    uint64_t lruTick = 0;
    // fetchAccess sequential-fetch memo; dropped whenever accessLine
    // or flush can move or retag lines.
    uint64_t lastFetchLineNo = ~0ULL;
    Line *lastFetchLine = nullptr;
};

/** The Table I per-core + shared hierarchy for one blade. */
class MemHierarchy
{
  public:
    /** Builds 16K/16K L1s per core and a shared 256K L2 over DDR3. */
    explicit MemHierarchy(uint32_t cores, DramConfig dram_cfg = {});

    /** Instruction fetch timing for core @p core. */
    Cycles fetch(uint32_t core, uint64_t addr, Cycles now);
    /** Data access timing for core @p core. */
    Cycles data(uint32_t core, uint64_t addr, uint32_t bytes,
                bool is_write, Cycles now);

    Cache &l1i(uint32_t core) { return *l1is.at(core); }
    Cache &l1d(uint32_t core) { return *l1ds.at(core); }
    Cache &l2() { return *l2_; }
    DramModel &dram() { return dram_; }

    /**
     * Register the whole hierarchy under @p prefix: per-core
     * <prefix>.l1i<core> / <prefix>.l1d<core>, the shared <prefix>.l2,
     * and <prefix>.dram row-buffer counters.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /** Serialize every level (dram, l2, per-core l1i/l1d) in order. */
    void snapshotSave(Serializer &s) const;

  private:
    DramModel dram_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l1is;
    std::vector<std::unique_ptr<Cache>> l1ds;
};

} // namespace firesim

#endif // FIRESIM_MEM_CACHE_HH
