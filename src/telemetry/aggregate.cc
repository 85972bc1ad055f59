#include "telemetry/aggregate.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/logging.hh"
#include "base/varint.hh"

namespace firesim
{

namespace
{

// Value tags: integral values (the overwhelming majority — counters)
// ride a zigzag varint; everything else ships raw IEEE-754 bits.
constexpr uint8_t kValInt = 0;
constexpr uint8_t kValDouble = 1;

bool
isIntegral(double v)
{
    return std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15;
}

void
putDoubleBits(std::string &out, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

bool
tryGetDoubleBits(const std::string &in, size_t &pos, double &v)
{
    if (pos + 8 > in.size())
        return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= static_cast<uint64_t>(
                    static_cast<uint8_t>(in[pos + i]))
                << (8 * i);
    pos += 8;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

/**
 * tryGetVarint for peer bytes: an over-long encoding (more than ten
 * bytes, wider than 64 bits) is malformed input, so it returns false
 * here instead of reaching tryGetVarint's panic.
 */
bool
getVarintField(const std::string &in, size_t &pos, uint64_t &out)
{
    size_t end = pos;
    while (end < in.size() && end - pos < 10 &&
           (static_cast<uint8_t>(in[end]) & 0x80))
        ++end;
    return end - pos < 10 && tryGetVarint(in, pos, out);
}

bool
tryGetBytes(const std::string &in, size_t &pos, size_t len,
            std::string &out)
{
    // len is peer-controlled: compare against what is left, so a
    // near-2^64 length cannot wrap pos + len past the check.
    if (len > in.size() - pos)
        return false;
    out.assign(in, pos, len);
    pos += len;
    return true;
}

size_t
commonPrefix(const std::string &a, const std::string &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

} // namespace

std::string
encodeRankTelemetry(const RankTelemetry &rt)
{
    std::string out;
    putVarint(out, kRankTelemetryVersion);
    putVarint(out, rt.rank);
    putVarint(out, rt.round);
    putVarint(out, rt.cycle);

    putVarint(out, rt.stats.values.size());
    const std::string *prev = nullptr;
    for (const auto &[name, value] : rt.stats.values) {
        // Registry order is sorted, so consecutive names share long
        // dotted prefixes; ship (shared, suffix) instead of the name.
        size_t shared = prev ? commonPrefix(*prev, name) : 0;
        putVarint(out, shared);
        putVarint(out, name.size() - shared);
        out.append(name, shared, name.size() - shared);
        prev = &name;
        if (isIntegral(value)) {
            out.push_back(static_cast<char>(kValInt));
            putVarint(out, zigzag(static_cast<int64_t>(value)));
        } else {
            out.push_back(static_cast<char>(kValDouble));
            putDoubleBits(out, value);
        }
    }

    putVarint(out, rt.phases.size());
    for (const auto &ph : rt.phases) {
        putVarint(out, ph.name.size());
        out.append(ph.name);
        putVarint(out, ph.startCycle);
        putVarint(out, ph.targetCycles);
        putDoubleBits(out, ph.hostSeconds);
    }
    return out;
}

bool
decodeRankTelemetry(const std::string &bytes, RankTelemetry &out)
{
    size_t p = 0;
    uint64_t version, rank, round, cycle, nstats;
    if (!getVarintField(bytes, p, version) ||
        version != kRankTelemetryVersion)
        return false;
    if (!getVarintField(bytes, p, rank) ||
        !getVarintField(bytes, p, round) ||
        !getVarintField(bytes, p, cycle) ||
        !getVarintField(bytes, p, nstats))
        return false;
    out = RankTelemetry{};
    out.rank = static_cast<uint32_t>(rank);
    out.round = round;
    out.cycle = cycle;
    out.stats.at = cycle;
    // nstats is peer-controlled: clamp the reserve to what the payload
    // could actually hold (a stat is >= 4 bytes on the wire) so a
    // hostile count cannot allocate unbounded memory up front. The
    // loop below still validates every element individually.
    out.stats.values.reserve(
        std::min<uint64_t>(nstats, (bytes.size() - p) / 4));

    std::string name;
    for (uint64_t i = 0; i < nstats; ++i) {
        uint64_t shared, suffix_len;
        if (!getVarintField(bytes, p, shared) ||
            !getVarintField(bytes, p, suffix_len))
            return false;
        if (shared > name.size())
            return false;
        std::string suffix;
        if (!tryGetBytes(bytes, p, suffix_len, suffix))
            return false;
        name.resize(shared);
        name += suffix;
        if (p >= bytes.size())
            return false;
        uint8_t tag = static_cast<uint8_t>(bytes[p++]);
        double value;
        if (tag == kValInt) {
            uint64_t zz;
            if (!getVarintField(bytes, p, zz))
                return false;
            value = static_cast<double>(unzigzag(zz));
        } else if (tag == kValDouble) {
            if (!tryGetDoubleBits(bytes, p, value))
                return false;
        } else {
            return false;
        }
        out.stats.values.emplace_back(name, value);
    }

    uint64_t nphases;
    if (!getVarintField(bytes, p, nphases))
        return false;
    // Same clamp as above: a phase entry is >= 11 bytes (name length,
    // two varints, 8-byte double), so the count cannot exceed that.
    out.phases.reserve(
        std::min<uint64_t>(nphases, (bytes.size() - p) / 11));
    for (uint64_t i = 0; i < nphases; ++i) {
        uint64_t name_len, start, cycles;
        SimRateTelemetry::Phase ph;
        if (!getVarintField(bytes, p, name_len) ||
            !tryGetBytes(bytes, p, name_len, ph.name) ||
            !getVarintField(bytes, p, start) ||
            !getVarintField(bytes, p, cycles) ||
            !tryGetDoubleBits(bytes, p, ph.hostSeconds))
            return false;
        ph.startCycle = start;
        ph.targetCycles = cycles;
        out.phases.push_back(std::move(ph));
    }
    return p == bytes.size();
}

void
StatAggregator::accept(RankTelemetry rt)
{
    uint32_t rank = rt.rank;
    byRank[rank] = std::move(rt);
}

void
StatAggregator::acceptEncoded(uint32_t rank, const std::string &payload)
{
    RankTelemetry rt;
    if (!decodeRankTelemetry(payload, rt)) {
        warn("aggregate: malformed telemetry payload from rank %u "
             "(%zu bytes); dropped",
             rank, payload.size());
        return;
    }
    if (rt.rank != rank) {
        warn("aggregate: rank %u payload claims rank %u; dropped", rank,
             rt.rank);
        return;
    }
    accept(std::move(rt));
}

const RankTelemetry &
StatAggregator::rankTelemetry(uint32_t rank) const
{
    auto it = byRank.find(rank);
    if (it == byRank.end())
        panic("aggregate: no telemetry for rank %u", rank);
    return it->second;
}

Cycles
StatAggregator::maxCycle() const
{
    Cycles max = 0;
    for (const auto &[rank, rt] : byRank)
        max = std::max(max, rt.cycle);
    return max;
}

std::string
StatAggregator::mergedJson() const
{
    std::string out = csprintf("{\"cycle\": %llu, \"stats\": {",
                               (unsigned long long)maxCycle());
    bool first = true;
    for (const auto &[rank, rt] : byRank) {
        for (const auto &[name, value] : rt.stats.values) {
            if (!first)
                out += ", ";
            first = false;
            out += csprintf(
                "\"rank%u.%s\": %s", rank, jsonEscape(name).c_str(),
                StatRegistry::formatValue(value).c_str());
        }
    }
    out += "}}";
    return out;
}

std::string
StatAggregator::mergedCsv() const
{
    std::string out = csprintf("# cycle %llu\nstat,value\n",
                               (unsigned long long)maxCycle());
    for (const auto &[rank, rt] : byRank) {
        for (const auto &[name, value] : rt.stats.values) {
            // The rank prefix cannot need quoting, but the stat name
            // can — one comma in a peer's stat name must not shift
            // every later column. Same helper as StatRegistry::dumpCsv.
            out += csprintf(
                "%s,%s\n",
                StatRegistry::csvField(csprintf("rank%u.%s", rank,
                                                name.c_str())).c_str(),
                StatRegistry::formatValue(value).c_str());
        }
    }
    return out;
}

std::string
StatAggregator::mergedTraceJson() const
{
    // Chrome trace with per-rank process lanes on the *simulated*
    // clock: one trace-cycle == one trace-microsecond, so lanes from
    // different hosts line up exactly (host wall time cannot).
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const auto &[rank, rt] : byRank) {
        out += csprintf(
            "%s\n  {\"name\": \"process_name\", \"ph\": \"M\", "
            "\"pid\": %u, \"args\": {\"name\": \"rank %u\"}}",
            first ? "" : ",", rank + 1, rank);
        first = false;
        for (const auto &ph : rt.phases) {
            out += csprintf(
                ",\n  {\"name\": \"%s\", \"cat\": \"simrate\", "
                "\"ph\": \"X\", \"pid\": %u, \"tid\": 1, "
                "\"ts\": %llu, \"dur\": %llu}",
                jsonEscape(ph.name).c_str(), rank + 1,
                (unsigned long long)ph.startCycle,
                (unsigned long long)ph.targetCycles);
        }
    }
    out += "\n]}";
    return out;
}

} // namespace firesim
