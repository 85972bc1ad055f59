/**
 * @file
 * DDR3 DRAM timing model (paper Section III-A4).
 *
 * FireSim attaches a synthesizable DDR3 timing model (from MIDAS) to
 * each FPGA's on-board DRAM. This reproduction models the same timing
 * structure in software: channels with ranks and banks, open-row
 * policy, and DDR3-1600-like parameters expressed in 3.2 GHz CPU-clock
 * cycles. The in-order Rocket core issues one blocking miss at a time,
 * so the model serves requests in arrival order (FCFS) and tracks
 * per-bank row state and availability.
 */

#ifndef FIRESIM_MEM_DRAM_HH
#define FIRESIM_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"

namespace firesim
{

class Serializer;

/** DDR3-1600 style parameters in CPU-clock cycles at 3.2 GHz
 *  (1 DRAM clock @ 800 MHz = 4 CPU cycles). */
struct DramConfig
{
    uint32_t channels = 1;
    uint32_t ranksPerChannel = 2;
    uint32_t banksPerRank = 8;
    uint32_t rowBytes = 8192;
    /** tRCD: activate to column command (13.75 ns). */
    Cycles tRcd = 44;
    /** tCL: column command to data (13.75 ns). */
    Cycles tCl = 44;
    /** tRP: precharge (13.75 ns). */
    Cycles tRp = 44;
    /** tRAS: activate to precharge minimum (35 ns). */
    Cycles tRas = 112;
    /** Data burst for one 64-byte line (4 DRAM clocks = BL8). */
    Cycles tBurst = 16;
    /** Controller + PHY overhead per access. */
    Cycles frontendLatency = 20;
};

struct DramStats
{
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowMisses;
    Counter rowConflicts;
};

/** Per-access timing for 64-byte line transfers. */
class DramModel
{
  public:
    explicit DramModel(DramConfig config = DramConfig{});

    /**
     * Timing for a line access beginning at @p now.
     * @return total latency in cycles (request to last data beat).
     */
    Cycles access(uint64_t addr, bool is_write, Cycles now);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return cfg; }

    /** Idle-bank row-hit latency (useful for tests/reports). */
    Cycles rowHitLatency() const
    {
        return cfg.frontendLatency + cfg.tCl + cfg.tBurst;
    }

    /** Idle-bank closed-row latency. */
    Cycles rowMissLatency() const
    {
        return cfg.frontendLatency + cfg.tRcd + cfg.tCl + cfg.tBurst;
    }

    /** Serialize per-bank row state and the counters. */
    void snapshotSave(Serializer &s) const;

  private:
    struct Bank
    {
        bool rowOpen = false;
        uint64_t openRow = 0;
        Cycles readyAt = 0;    //!< bank free for a new column command
        Cycles activatedAt = 0;
    };

    Bank &bankFor(uint64_t addr, uint64_t &row);

    DramConfig cfg;
    DramStats stats_;
    std::vector<Bank> banks;
};

} // namespace firesim

#endif // FIRESIM_MEM_DRAM_HH
