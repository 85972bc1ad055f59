/**
 * @file
 * Comparing two live runs' state images (Cluster::stateImage). The
 * simulation is deterministic, so two runs of one target hold the same
 * bytes in every section at the same round barrier, whatever the
 * worker count, transport, decode cache or shard plan. A parity test
 * takes an image from each run at the same cycle and checks
 * imageDiff(a, b) is empty; a non-empty result names every divergent
 * section and the first byte where it differs.
 *
 * A sharded run holds each component and channel section on exactly
 * one rank. unionRankImages() merges its rank images into one image
 * that compares against a one-process run.
 */

#ifndef FIRESIM_TESTS_STATE_IMAGE_HH
#define FIRESIM_TESTS_STATE_IMAGE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "manager/cluster.hh"

namespace firesim
{

/**
 * "" when @p a and @p b hold the same sections with the same bytes,
 * else one line per difference: "section 'X' diverges at byte N (...)"
 * or "section 'X' missing from the first/second image".
 */
inline std::string
imageDiff(const StateImage &a, const StateImage &b)
{
    std::map<std::string, const std::string *> in_b;
    for (const auto &[name, bytes] : b)
        in_b.emplace(name, &bytes);
    std::string out;
    auto report = [&out](std::string line) {
        out += out.empty() ? "" : "\n";
        out += line;
    };
    for (const auto &[name, bytes] : a) {
        auto it = in_b.find(name);
        if (it == in_b.end()) {
            report(csprintf("section '%s' missing from the second image",
                            name.c_str()));
            continue;
        }
        const std::string &other = *it->second;
        in_b.erase(it);
        if (bytes == other)
            continue;
        auto at = std::mismatch(bytes.begin(), bytes.end(), other.begin(),
                                other.end());
        report(csprintf("section '%s' diverges at byte %zu (%zu bytes vs "
                        "%zu)",
                        name.c_str(),
                        static_cast<size_t>(at.first - bytes.begin()),
                        bytes.size(), other.size()));
    }
    for (const auto &[name, bytes] : in_b)
        report(csprintf("section '%s' missing from the first image",
                        name.c_str()));
    return out;
}

/** Sections each rank writes for its own components only ("fault",
 *  "health", "autocounter", "stats"): they compare only between runs
 *  of the same shard plan. */
inline bool
isRankLocalSection(const std::string &name)
{
    return name == "fault" || name == "health" || name == "autocounter" ||
           name == "stats";
}

/**
 * The plan-independent image of a run, from its ranks' images (a
 * one-process run passes its one image): every component and channel
 * section once, "fabric" once, rank-local sections left out. Fails the
 * test when two ranks hold the same component or channel section, or
 * disagree on "fabric".
 */
inline StateImage
unionRankImages(const std::vector<StateImage> &ranks)
{
    std::map<std::string, std::string> merged;
    for (size_t r = 0; r < ranks.size(); ++r) {
        for (const auto &[name, bytes] : ranks[r]) {
            if (isRankLocalSection(name))
                continue;
            auto [it, fresh] = merged.emplace(name, bytes);
            if (fresh)
                continue;
            if (name != "fabric")
                ADD_FAILURE() << "section '" << name << "' held by rank "
                              << r << " and an earlier rank";
            else if (it->second != bytes)
                ADD_FAILURE() << "rank " << r
                              << " disagrees on section 'fabric'";
        }
    }
    return StateImage(merged.begin(), merged.end());
}

} // namespace firesim

#endif // FIRESIM_TESTS_STATE_IMAGE_HH
