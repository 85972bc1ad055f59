/**
 * @file
 * Versioned snapshot container: the on-disk file format.
 *
 * Each stateful component serializes itself with snapshotSave. A
 * restore replays a freshly built cluster to the snapshot cycle and
 * then byte-compares every section with the replayed component's
 * snapshotSave (Cluster::loadSnapshot): the file is a check on the
 * replay, never written back into the components.
 *
 * File layout (all integers little-endian):
 *
 *     magic   "FSNP"           4 bytes
 *     version u32              format revision (kSnapshotVersion)
 *     topoHash u64             ShardPlan topology/timing hash — a
 *                              restore into a differently shaped or
 *                              timed cluster is rejected up front
 *     shards  varint           shard count the run was built with
 *     rank    varint           which shard wrote this file
 *     round   varint           fabric round the barrier snapshot hit
 *     cycle   varint           target cycle at that barrier
 *     sections                 repeated until EOF:
 *        name    len-prefixed  component identity ("node0.nic", ...)
 *        payload len-prefixed  the component's Serializer bytes
 *        crc32   u32 fixed     CRC of the payload bytes only
 *
 * Each section carries its own CRC so a flipped bit names the
 * component it corrupted; the header is covered by its own CRC.
 * Writes are atomic: tmp file + fsync + rename, so a crash mid-write
 * leaves either the old snapshot or none — never a torn one. In a
 * distributed run every rank writes `<path>.rank<N>` at the same
 * round barrier, making the per-rank files mutually consistent by
 * construction (no flit is in the air at a barrier that is not
 * captured inside some channel ring).
 */

#ifndef FIRESIM_SNAPSHOT_SNAPSHOT_HH
#define FIRESIM_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/units.hh"
#include "snapshot/serial.hh"

namespace firesim
{

/** Bumped whenever the section payload layout changes. v2: component
 *  sections are named by *global* index, fabric round state and
 *  per-channel rings split into "fabric" + "chan<link>" sections, and
 *  a "plan" section records the owner map — together these let a
 *  snapshot be restored under a different ShardPlan (re-sharding).
 *  v3: "net<i>" sections no longer carry ARP entries (the cluster's
 *  one shared ARP table is a function of the topology, which the
 *  header's topoHash already pins).
 *  v4: restore is replay plus a byte compare of every section; the
 *  "autocounter" section writes host-timing columns as 0. */
constexpr uint32_t kSnapshotVersion = 4;

/** "FSNP" little-endian. */
constexpr uint32_t kSnapshotMagic = 0x504e5346u;

/** Identification fields every snapshot file starts with. */
struct SnapshotHeader
{
    uint32_t version = kSnapshotVersion;
    uint64_t topoHash = 0;
    uint64_t shards = 1;
    uint64_t rank = 0;
    uint64_t round = 0;
    Cycles cycle = 0;
};

/**
 * Accumulates named sections and writes them atomically. Sections
 * are written in the order added; the writer does not care what is
 * inside a payload.
 */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(SnapshotHeader header)
        : hdr(std::move(header))
    {}

    /** Add one component section (payload = its Serializer bytes). */
    void
    addSection(const std::string &name, std::string payload)
    {
        order.push_back(name);
        payloads.emplace_back(std::move(payload));
    }

    const SnapshotHeader &header() const { return hdr; }
    size_t sectionCount() const { return order.size(); }

    /** The complete file image (header + sections + CRCs). */
    std::string encode() const;

    /**
     * Atomically write encode() to @p path: `<path>.tmp` + fsync +
     * rename. Returns empty on success, else a diagnostic.
     */
    std::string writeFile(const std::string &path) const;

  private:
    SnapshotHeader hdr;
    std::vector<std::string> order;
    std::vector<std::string> payloads;
};

/**
 * Parses and validates a snapshot image. Construction never throws;
 * open()/parse() return a diagnostic string (empty = success) for
 * bad magic, version skew, truncation, and CRC mismatches — the
 * failure modes the corruption tests pin.
 */
class SnapshotReader
{
  public:
    /** Read + parse @p path. Empty return = success. */
    std::string open(const std::string &path);

    /** Parse an in-memory image (testing + network restore paths). */
    std::string parse(std::string image);

    const SnapshotHeader &header() const { return hdr; }

    bool hasSection(const std::string &name) const;

    /** Payload bytes of @p name; fails @p err if absent. */
    std::string section(const std::string &name,
                        SnapshotErrors &err) const;

    /** Section names in file order. */
    const std::vector<std::string> &sectionNames() const { return names; }

  private:
    SnapshotHeader hdr;
    std::vector<std::string> names;
    std::map<std::string, std::string> sections;
};

/** `<path>.rank<N>` — the per-rank file of a distributed snapshot.
 *  Rank 0 of a 1-shard run uses @p path unadorned. */
std::string snapshotRankPath(const std::string &path, uint64_t shards,
                             uint64_t rank);

/**
 * Atomically replace @p path with @p bytes: write `<path>.tmp`, fsync,
 * rename. A crash mid-write leaves either the old file or none, never
 * a torn one. Shared by snapshots, the Prometheus metrics file, and
 * flight-recorder postmortems. Returns empty on success, else a
 * diagnostic prefixed with @p what.
 */
std::string atomicWriteFile(const std::string &path,
                            const std::string &bytes,
                            const char *what = "snapshot");

} // namespace firesim

#endif // FIRESIM_SNAPSHOT_SNAPSHOT_HH
