/**
 * @file
 * Deterministic mutation fuzzing of the FSPROF deployment-profile
 * decoder (DeploymentProfile::decode), in the style of
 * snapshot_fuzz_test: no external fuzzer, a fixed seed, and every
 * mutation reproducible from its index.
 *
 * An encoded profile is mutated two ways:
 *  - raw: truncated at every length, or one to three bytes XORed with
 *    a random non-zero mask. The crc trailer covers every byte, so
 *    decode must return false with an error.
 *  - re-sealed: the body (everything before the crc line) is mutated
 *    the same way and a fresh crc line appended, so the mutated lines
 *    reach the line parser. Decode may accept or reject; a rejection
 *    must name its reason, and nothing may crash or allocate without
 *    bound.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "base/logging.hh"
#include "manager/deploy.hh"
#include "snapshot/serial.hh"

namespace firesim
{
namespace
{

const std::string kCrcPrefix = "crc ";

DeploymentProfile
sampleProfile()
{
    DeploymentProfile p;
    p.topoHash = 0x0123456789abcdefULL;
    p.serverCostNs = {12.5, 0.0, 3.25, 1800.0, 0.0, 7.0};
    p.linkFlits = {7, 0, 0, 42, 100000, 0, 1, 9};
    return p;
}

/** @p body followed by the crc line encode() would seal it with. */
std::string
resealed(const std::string &body)
{
    return body + csprintf("%s%08x\n", kCrcPrefix.c_str(),
                           crc32(body.data(), body.size()));
}

TEST(ProfileFuzz, MutatedProfilesAreRejectedAndNeverCrash)
{
    const std::string image = sampleProfile().encode();
    const size_t crc_at = image.rfind(kCrcPrefix);
    ASSERT_NE(crc_at, std::string::npos);
    const std::string body = image.substr(0, crc_at);
    ASSERT_EQ(resealed(body), image);

    DeploymentProfile out;
    std::string err;
    ASSERT_TRUE(DeploymentProfile::decode(image, out, &err)) << err;
    EXPECT_EQ(out.encode(), image);

    auto rejected = [](const std::string &text) {
        DeploymentProfile p;
        std::string why;
        bool ok = DeploymentProfile::decode(text, p, &why);
        return !ok && !why.empty();
    };

    // Raw truncation at every length, the empty file included.
    for (size_t keep = 0; keep < image.size(); ++keep)
        EXPECT_TRUE(rejected(image.substr(0, keep)))
            << "truncated to " << keep << " of " << image.size();

    std::mt19937_64 rng(0xf5f5);
    auto flipped = [&rng](std::string bytes) {
        int flips = 1 + static_cast<int>(rng() % 3);
        for (int f = 0; f < flips; ++f)
            bytes[rng() % bytes.size()] ^=
                static_cast<char>(1 + rng() % 255);
        return bytes;
    };

    // Raw flips: the crc trailer catches every one.
    for (int iter = 0; iter < 2000; ++iter) {
        std::string bad = flipped(image);
        if (bad != image) {
            EXPECT_TRUE(rejected(bad)) << "raw flip iteration " << iter;
        }
    }

    // Re-sealed truncations and flips reach the line parser.
    size_t accepted = 0, total = 0;
    auto probe = [&](const std::string &text) {
        DeploymentProfile p;
        std::string why;
        ++total;
        if (DeploymentProfile::decode(text, p, &why))
            ++accepted;
        else
            EXPECT_FALSE(why.empty());
    };
    for (size_t keep = 0; keep < body.size(); ++keep)
        probe(resealed(body.substr(0, keep)));
    for (int iter = 0; iter < 2000; ++iter)
        probe(resealed(flipped(body)));
    RecordProperty("resealed_total", static_cast<int>(total));
    RecordProperty("resealed_accepted", static_cast<int>(accepted));
}

TEST(ProfileFuzz, HugeCountsAreRejectedWithoutAllocating)
{
    for (const char *line : {"servers 18446744073709551615",
                             "links 99999999999", "servers 16777217"}) {
        DeploymentProfile p;
        std::string err;
        EXPECT_FALSE(DeploymentProfile::decode(
            resealed(std::string("FSPROF v2\n") + line + "\n"), p, &err))
            << line;
        EXPECT_NE(err.find("too large"), std::string::npos) << err;
    }
}

} // namespace
} // namespace firesim
