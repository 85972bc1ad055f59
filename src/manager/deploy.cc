#include "manager/deploy.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/logging.hh"
#include "snapshot/snapshot.hh"

namespace firesim
{

const char *
shardPolicyName(ShardPolicy policy)
{
    switch (policy) {
      case ShardPolicy::Block:
        return "block";
      case ShardPolicy::Cost:
        return "cost";
    }
    return "?";
}

bool
parseShardPolicy(const std::string &text, ShardPolicy &out)
{
    if (text == "block") {
        out = ShardPolicy::Block;
        return true;
    }
    if (text == "cost") {
        out = ShardPolicy::Cost;
        return true;
    }
    return false;
}

bool
DeploymentProfile::empty() const
{
    for (double c : serverCostNs)
        if (c > 0)
            return false;
    for (uint64_t f : linkFlits)
        if (f > 0)
            return false;
    return true;
}

void
DeploymentProfile::merge(const DeploymentProfile &other)
{
    if (topoHash == 0)
        topoHash = other.topoHash;
    if (other.serverCostNs.size() > serverCostNs.size())
        serverCostNs.resize(other.serverCostNs.size(), 0.0);
    for (size_t j = 0; j < other.serverCostNs.size(); ++j)
        if (other.serverCostNs[j] > 0)
            serverCostNs[j] = other.serverCostNs[j];
    if (other.linkFlits.size() > linkFlits.size())
        linkFlits.resize(other.linkFlits.size(), 0);
    for (size_t l = 0; l < other.linkFlits.size(); ++l)
        if (other.linkFlits[l] > 0)
            linkFlits[l] = other.linkFlits[l];
}

namespace
{

/** The trailer line sealing @p body: its CRC32, 8 lowercase hex digits. */
std::string
crcLine(const std::string &body)
{
    return csprintf("crc %08x\n", crc32(body.data(), body.size()));
}

} // namespace

std::string
DeploymentProfile::encode() const
{
    std::string out = "FSPROF v2\n";
    out += csprintf("topo %016llx\n",
                    static_cast<unsigned long long>(topoHash));
    out += csprintf("servers %zu\n", serverCostNs.size());
    for (size_t j = 0; j < serverCostNs.size(); ++j)
        if (serverCostNs[j] > 0)
            out += csprintf("s %zu %.3f\n", j, serverCostNs[j]);
    out += csprintf("links %zu\n", linkFlits.size());
    for (size_t l = 0; l < linkFlits.size(); ++l)
        if (linkFlits[l] > 0)
            out += csprintf("l %zu %llu\n", l,
                            static_cast<unsigned long long>(linkFlits[l]));
    return out + crcLine(out);
}

bool
DeploymentProfile::decode(const std::string &text, DeploymentProfile &out,
                          std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    // Far above any topology; bounds what a damaged count allocates.
    constexpr unsigned long long kMaxEntries = 1ULL << 24;
    out = DeploymentProfile{};
    // The last line seals every byte before it, so a flipped or
    // truncated file is rejected before any line is parsed.
    const size_t kCrcLine = std::string("crc 00000000\n").size();
    if (text.size() < kCrcLine ||
        text.compare(text.size() - kCrcLine, 4, "crc ") != 0)
        return fail("profile has no crc trailer (truncated?)");
    const std::string body = text.substr(0, text.size() - kCrcLine);
    if (text.compare(body.size(), kCrcLine, crcLine(body)) != 0)
        return fail("profile crc mismatch (corrupted or truncated)");

    size_t pos = 0;
    bool sawMagic = false;
    while (pos < body.size()) {
        size_t nl = body.find('\n', pos);
        std::string line = body.substr(
            pos, nl == std::string::npos ? std::string::npos : nl - pos);
        pos = nl == std::string::npos ? body.size() : nl + 1;
        if (line.empty())
            continue;
        if (!sawMagic) {
            if (line != "FSPROF v2")
                return fail("bad profile magic: \"" + line + "\"");
            sawMagic = true;
            continue;
        }
        unsigned long long a = 0, b = 0;
        double d = 0;
        if (std::sscanf(line.c_str(), "topo %llx", &a) == 1) {
            out.topoHash = a;
        } else if (std::sscanf(line.c_str(), "servers %llu", &a) == 1) {
            if (a > kMaxEntries)
                return fail(csprintf("server count %llu too large", a));
            out.serverCostNs.assign(a, 0.0);
        } else if (std::sscanf(line.c_str(), "links %llu", &a) == 1) {
            if (a > kMaxEntries)
                return fail(csprintf("link count %llu too large", a));
            out.linkFlits.assign(a, 0);
        } else if (std::sscanf(line.c_str(), "s %llu %lf", &a, &d) == 2) {
            if (a >= out.serverCostNs.size())
                return fail(csprintf("server %llu out of range", a));
            out.serverCostNs[a] = d;
        } else if (std::sscanf(line.c_str(), "l %llu %llu", &a, &b) == 2) {
            if (a >= out.linkFlits.size())
                return fail(csprintf("link %llu out of range", a));
            out.linkFlits[a] = b;
        } else {
            return fail("unparseable profile line: \"" + line + "\"");
        }
    }
    if (!sawMagic)
        return fail("empty profile");
    return true;
}

std::string
DeploymentProfile::saveFile(const std::string &path) const
{
    return atomicWriteFile(path, encode(), "deployment profile");
}

bool
DeploymentProfile::loadFile(const std::string &path, std::string *err)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return true; // missing profile: first run of the loop
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    DeploymentProfile part;
    if (!decode(text, part, err)) {
        if (err)
            *err = path + ": " + *err;
        return false;
    }
    if (topoHash != 0 && part.topoHash != 0 && topoHash != part.topoHash) {
        if (err)
            *err = csprintf("%s: profile topoHash %016llx conflicts "
                            "with %016llx",
                            path.c_str(),
                            static_cast<unsigned long long>(part.topoHash),
                            static_cast<unsigned long long>(topoHash));
        return false;
    }
    merge(part);
    return true;
}

DeploymentProfile
DeploymentProfile::loadMerged(const std::string &path, std::string *err)
{
    DeploymentProfile out;
    if (!out.loadFile(path, err))
        return out;
    for (uint64_t k = 0;; ++k) {
        std::string rankPath = csprintf("%s.rank%llu", path.c_str(),
                                        static_cast<unsigned long long>(k));
        if (::access(rankPath.c_str(), F_OK) != 0)
            break;
        if (!out.loadFile(rankPath, err))
            return out;
    }
    return out;
}

namespace
{

/** Per-server weights: the profile's measured costs where available,
 *  uniform 1.0 when the profile is missing/foreign/unmeasured, and
 *  the smallest measured cost for servers the profile never saw (a
 *  zero would make them free to stack on one rank). */
std::vector<double>
weightsFor(const ShardPlan &plan, const DeploymentProfile &profile)
{
    std::vector<double> w(plan.nServers, 1.0);
    if (profile.serverCostNs.size() != plan.nServers)
        return w;
    if (profile.topoHash != 0 && plan.topoHash != 0 &&
        profile.topoHash != plan.topoHash) {
        warn("deployment profile topoHash %016llx does not match the "
             "topology (%016llx); falling back to uniform weights",
             static_cast<unsigned long long>(profile.topoHash),
             static_cast<unsigned long long>(plan.topoHash));
        return w;
    }
    double minPos = 0;
    for (double c : profile.serverCostNs)
        if (c > 0 && (minPos == 0 || c < minPos))
            minPos = c;
    if (minPos == 0)
        return w; // nothing measured
    for (uint32_t j = 0; j < plan.nServers; ++j)
        w[j] = profile.serverCostNs[j] > 0 ? profile.serverCostNs[j]
                                           : minPos;
    return w;
}

/** Switch owners induced by @p serverOwner (the min-subtree-server
 *  rule ShardPlan::build applies). */
std::vector<uint32_t>
switchOwnersFor(const ShardPlan &plan,
                const std::vector<uint32_t> &serverOwner)
{
    std::vector<uint32_t> owner(plan.nSwitches, 0);
    for (uint32_t s = 0; s < plan.nSwitches; ++s) {
        uint32_t first = plan.nServers;
        for (const auto &per_port : plan.portServers[s])
            for (uint32_t server : per_port)
                first = std::min(first, server);
        owner[s] = first < plan.nServers ? serverOwner[first] : 0;
    }
    return owner;
}

} // namespace

PlanCost
evaluateOwners(const ShardPlan &plan, const std::vector<uint32_t> &owners,
               const DeploymentProfile &profile)
{
    std::vector<double> w = weightsFor(plan, profile);
    PlanCost cost;
    cost.rankLoadNs.assign(plan.shards, 0.0);
    for (uint32_t j = 0; j < plan.nServers; ++j)
        cost.rankLoadNs[owners[j]] += w[j];
    double total = 0;
    for (double l : cost.rankLoadNs) {
        cost.maxLoadNs = std::max(cost.maxLoadNs, l);
        total += l;
    }
    cost.meanLoadNs = plan.shards ? total / plan.shards : 0.0;

    std::vector<uint32_t> swOwner = switchOwnersFor(plan, owners);
    for (size_t k = 0; k < plan.links.size(); ++k) {
        const ShardPlan::Link &l = plan.links[k];
        uint32_t parent = swOwner[l.parentSwitch];
        uint32_t child =
            l.childIsSwitch ? swOwner[l.child] : owners[l.child];
        if (parent == child)
            continue;
        auto flitsOf = [&](uint32_t id) -> uint64_t {
            return id < profile.linkFlits.size() ? profile.linkFlits[id]
                                                 : 0;
        };
        uint64_t f = flitsOf(ShardPlan::downLinkId(k)) +
                     flitsOf(ShardPlan::upLinkId(k));
        // An unmeasured cross link still costs its barrier traffic:
        // weight it 1 so min-cut prefers fewer crossings on ties.
        cost.cutFlits += f > 0 ? f : 1;
    }
    return cost;
}

std::vector<uint32_t>
computeCostOwners(const ShardPlan &plan, const DeploymentProfile &profile)
{
    const uint32_t n = plan.nServers;
    const uint32_t shards = plan.shards;
    FS_ASSERT(shards >= 1 && shards <= n, "bad shard count for mapper");

    std::vector<double> w = weightsFor(plan, profile);
    std::vector<double> cum(n + 1, 0.0);
    for (uint32_t j = 0; j < n; ++j)
        cum[j + 1] = cum[j] + w[j];
    const double total = cum[n];

    // Contiguous quantile split on cumulative cost; with uniform
    // weights this reproduces the block policy exactly.
    std::vector<uint32_t> bounds(shards + 1, 0);
    bounds[shards] = n;
    for (uint32_t r = 1; r < shards; ++r) {
        double target = total * r / shards;
        uint32_t b = bounds[r - 1] + 1;
        while (b < n && cum[b] < target)
            ++b;
        // Keep every remaining rank non-empty.
        b = std::min(b, n - (shards - r));
        b = std::max(b, bounds[r - 1] + 1);
        bounds[r] = b;
    }

    auto ownersOf = [&](const std::vector<uint32_t> &bnd) {
        std::vector<uint32_t> owners(n, 0);
        for (uint32_t r = 0; r < shards; ++r)
            for (uint32_t j = bnd[r]; j < bnd[r + 1]; ++j)
                owners[j] = r;
        return owners;
    };
    auto scoreOf = [&](const std::vector<uint32_t> &bnd) {
        PlanCost c = evaluateOwners(plan, ownersOf(bnd), profile);
        return std::make_pair(c.maxLoadNs, c.cutFlits);
    };

    // Deterministic boundary refinement: slide each cut point one
    // server at a time while (maxLoad, cutFlits) improves
    // lexicographically. Bounded passes keep this O(passes * shards *
    // links) — a startup cost, not a round cost.
    auto score = scoreOf(bounds);
    for (int pass = 0; pass < 8; ++pass) {
        bool improved = false;
        for (uint32_t r = 1; r < shards; ++r) {
            for (int dir : {-1, 1}) {
                for (;;) {
                    uint32_t b = bounds[r] + dir;
                    if (b <= bounds[r - 1] || b >= bounds[r + 1])
                        break;
                    std::vector<uint32_t> trial = bounds;
                    trial[r] = b;
                    auto s = scoreOf(trial);
                    if (s.first < score.first - 1e-9 ||
                        (s.first < score.first + 1e-9 &&
                         s.second < score.second)) {
                        bounds = std::move(trial);
                        score = s;
                        improved = true;
                    } else {
                        break;
                    }
                }
            }
        }
        if (!improved)
            break;
    }

    std::vector<uint32_t> owners = ownersOf(bounds);

    // Never ship a plan with a worse max load than the block split on
    // the same weights — the acceptance floor of --shard-policy=cost.
    std::vector<uint32_t> block(n);
    for (uint32_t j = 0; j < n; ++j)
        block[j] = static_cast<uint32_t>(static_cast<uint64_t>(j) *
                                         shards / n);
    PlanCost ours = evaluateOwners(plan, owners, profile);
    PlanCost blk = evaluateOwners(plan, block, profile);
    if (ours.maxLoadNs > blk.maxLoadNs + 1e-9)
        return block;
    return owners;
}

} // namespace firesim
