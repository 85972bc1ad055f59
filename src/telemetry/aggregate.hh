/**
 * @file
 * Cross-shard telemetry aggregation (paper Section III-C: the
 * simulation manager's single pane of glass over the whole cluster).
 *
 * Each non-zero rank periodically encodes a RankTelemetry — its full
 * StatRegistry snapshot — into a compact varint payload that the shard
 * transport piggybacks on the RoundDone barrier (net/remote/wire
 * FrameType::Stats). Rank 0 feeds every payload (and its own local
 * snapshot) into a StatAggregator, which keeps the latest view per rank
 * and renders it as one global stat tree (mergedJson()/mergedCsv())
 * with per-rank `rankK.` name prefixes, byte-equivalent to the
 * single-process dump modulo those prefixes and host-timing keys
 * (pinned by tests/obs).
 *
 * The encoding is host-observability-only: it never feeds back into
 * simulation state, so shipping it cannot perturb determinism.
 */

#ifndef FIRESIM_TELEMETRY_AGGREGATE_HH
#define FIRESIM_TELEMETRY_AGGREGATE_HH

#include <cstdint>
#include <map>
#include <string>

#include "base/units.hh"
#include "telemetry/stat_registry.hh"

namespace firesim
{

/** Bumped when the RankTelemetry payload layout changes. */
constexpr uint32_t kRankTelemetryVersion = 2;

/** One rank's point-in-time telemetry, as shipped to rank 0. */
struct RankTelemetry
{
    uint32_t rank = 0;
    uint64_t round = 0;
    Cycles cycle = 0;
    StatSnapshot stats;
};

/**
 * Varint encoding: version, rank, round, cycle, then the stats with
 * common-prefix name compression (dotted stat trees share long
 * prefixes) and integral values as zigzag varints.
 */
std::string encodeRankTelemetry(const RankTelemetry &rt);

/** Strict decode; false (with @p out unspecified) on malformed or
 *  truncated bytes — network payloads never panic. */
bool decodeRankTelemetry(const std::string &bytes, RankTelemetry &out);

/**
 * Rank 0's merge point. accept() keeps the newest telemetry per rank
 * (rank 0 inserts its own local snapshot the same way); the merged
 * renderings walk ranks in ascending order.
 */
class StatAggregator
{
  public:
    void accept(RankTelemetry rt);

    /** Decode + accept a wire payload; warns and drops on malformed
     *  bytes (a sick peer must not kill the aggregator). */
    void acceptEncoded(uint32_t rank, const std::string &payload);

    size_t rankCount() const { return byRank.size(); }
    bool hasRank(uint32_t rank) const { return byRank.count(rank) != 0; }
    const RankTelemetry &rankTelemetry(uint32_t rank) const;

    /** Highest cycle any rank has reported (the merged dump stamp). */
    Cycles maxCycle() const;

    /** {"cycle": N, "stats": {"rank0.a.b": v, ...}} — same shape as
     *  StatRegistry::dumpJson with rank-prefixed names. */
    std::string mergedJson() const;

    /** CSV matching StatRegistry::dumpCsv, rank-prefixed. */
    std::string mergedCsv() const;

  private:
    std::map<uint32_t, RankTelemetry> byRank;
};

} // namespace firesim

#endif // FIRESIM_TELEMETRY_AGGREGATE_HH
