/**
 * @file
 * Block device controller model (paper Section III-A3).
 *
 * The controller contains a frontend that interfaces with the CPU and
 * one or more trackers that move data between memory and the block
 * device. The frontend exposes MMIO registers through which the CPU sets
 * the fields of a request; reading the allocation register dispatches
 * the request to a tracker and returns the tracker's ID. When a transfer
 * completes, the tracker posts its ID to the completion queue and the
 * frontend raises an interrupt; the CPU matches the ID against the one
 * it received at allocation.
 *
 * The device is organized into 512-byte sectors; transfers are always a
 * whole number of sectors and must be sector-aligned on the device
 * (memory addresses need not be aligned).
 *
 * The paper's release used a functional software model served by the
 * simulation controller; latency here is a simple fixed-plus-bandwidth
 * model with pluggable parameters (Section VIII names a timing-accurate
 * storage model as future work — see StorageTimingProfile).
 */

#ifndef FIRESIM_BLOCKDEV_BLOCKDEV_HH
#define FIRESIM_BLOCKDEV_BLOCKDEV_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "mem/functional_memory.hh"
#include "sim/event_queue.hh"

namespace firesim
{

class Serializer;

/** Sector size mandated by the controller. */
constexpr uint32_t kSectorBytes = 512;

/**
 * Latency parameters for a storage technology. Presets model the
 * technologies the paper names as evaluation targets (disk, SSD,
 * 3D XPoint).
 */
struct StorageTimingProfile
{
    std::string label = "ssd";
    /** Fixed per-request access latency in cycles. */
    Cycles accessLatency = 320000; // 100 us at 3.2 GHz
    /** Sustained transfer bandwidth in bytes per cycle. */
    double bytesPerCycle = 1.0; // ~25.6 Gbit/s

    static StorageTimingProfile disk();
    static StorageTimingProfile ssd();
    static StorageTimingProfile xpoint();
};

struct BlockDevConfig
{
    std::string name = "blkdev";
    /** Device capacity in sectors. */
    uint32_t sectors = 1u << 20; // 512 MiB
    /** Number of concurrent trackers. */
    uint32_t trackers = 4;
    StorageTimingProfile timing;
};

struct BlockDevStats
{
    Counter reads;
    Counter writes;
    Counter sectorsMoved;
    Counter interruptsRaised;
};

class BlockDevice
{
  public:
    BlockDevice(BlockDevConfig config, EventQueue &queue,
                FunctionalMemory &memory);

    const BlockDevConfig &config() const { return cfg; }
    const BlockDevStats &stats() const { return stats_; }

    /**
     * Allocate a tracker and start a transfer.
     * @param write true to move memory -> device, false device -> memory
     * @param mem_addr source/destination byte address in memory
     * @param sector first device sector
     * @param count number of sectors
     * @return the tracker ID, or nullopt when every tracker is busy.
     */
    std::optional<uint32_t> request(bool write, uint64_t mem_addr,
                                    uint32_t sector, uint32_t count);

    /** Pop a completed tracker ID, if any. */
    std::optional<uint32_t> popCompletion();

    /** Interrupt raised whenever a completion is posted. */
    void setInterruptHandler(std::function<void()> handler);

    /** Direct backing-store access for test setup / image loading. */
    void writeImage(uint32_t sector, const void *src, uint64_t len);
    void readImage(uint32_t sector, void *dst, uint64_t len) const;

    /**
     * Serialize tracker occupancy, the completion queue, counters, and
     * the device image (sparse — only written pages). In-flight
     * completion events live on the blade's event queue; the schedule
     * digest covers them and replay rebuilds them.
     */
    void snapshotSave(Serializer &s) const;

  private:
    BlockDevConfig cfg;
    EventQueue &eq;
    FunctionalMemory &mem;
    BlockDevStats stats_;

    std::vector<bool> trackerBusy;
    std::deque<uint32_t> completions;
    std::function<void()> interruptHandler;
    /** Sparse backing store: capacity is virtual until written. */
    FunctionalMemory storage;
};

} // namespace firesim

#endif // FIRESIM_BLOCKDEV_BLOCKDEV_HH
