/**
 * @file
 * Deterministic mutation fuzzing of cluster snapshot restore, in the
 * style of decode_fuzz_test: no external fuzzer, a fixed seed, and
 * every mutation reproducible from its section name and index.
 *
 * A small cluster saves one snapshot with traffic in flight. Every
 * section of that image is then mutated two ways:
 *  - raw: the file itself is truncated inside the section or has a
 *    payload byte flipped. The container must reject it (truncation
 *    or CRC mismatch) before any component sees the bytes.
 *  - re-sealed: the section payload is truncated or byte-flipped and
 *    the image re-encoded with fresh CRCs, so the mutated bytes reach
 *    the component decoders (the Deserializer and every
 *    snapshotRestore). A truncated payload must be reported; a flipped
 *    one may legitimately restore (e.g. a flit's data byte), so only
 *    "never crashes" is asserted for it.
 * After each mutated restore the pristine image must restore cleanly
 * again, so a decoder that half-applies garbage cannot leave the live
 * cluster in a state the next restore trips over.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "snapshot/snapshot.hh"
#include "tests/scoped_temp_dir.hh"

namespace firesim
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A parsed snapshot that can be re-encoded with one section replaced
 *  and knows where each section sits in the original image. */
struct SectionImage
{
    SnapshotHeader header;
    std::vector<std::string> names;
    std::vector<std::string> payloads;
    /** offsets[k] = first byte of section k; offsets.back() = size. */
    std::vector<size_t> offsets;

    explicit SectionImage(const std::string &image)
    {
        SnapshotReader r;
        std::string e = r.parse(image);
        EXPECT_EQ(e, "");
        header = r.header();
        names = r.sectionNames();
        SnapshotErrors err;
        for (const std::string &n : names)
            payloads.push_back(r.section(n, err));
        EXPECT_TRUE(err.ok()) << err.str();
        for (size_t k = 0; k <= names.size(); ++k)
            offsets.push_back(encodeFirst(k).size());
        EXPECT_EQ(offsets.back(), image.size());
    }

    /** The image with section @p k's payload replaced by @p payload,
     *  every CRC recomputed. */
    std::string
    resealed(size_t k, std::string payload) const
    {
        SnapshotWriter w(header);
        for (size_t i = 0; i < names.size(); ++i)
            w.addSection(names[i], i == k ? payload : payloads[i]);
        return w.encode();
    }

  private:
    std::string
    encodeFirst(size_t k) const
    {
        SnapshotWriter w(header);
        for (size_t i = 0; i < k; ++i)
            w.addSection(names[i], payloads[i]);
        return w.encode();
    }
};

TEST(SnapshotFuzz, MutatedSectionsAreRejectedAndNeverCrash)
{
    ScopedTempDir tmp;
    const std::string path = tmp.file("fuzz.snap");

    ClusterConfig cc;
    cc.linkLatency = 400;
    cc.telemetry.enabled = true;
    cc.telemetry.samplePeriod = 2000;
    Cluster clu(topologies::twoLevel(2, 2), cc);
    clu.health();
    for (size_t from : {0, 3}) {
        NodeSystem &n = clu.node(from);
        size_t to = 3 - from;
        n.os().spawn("pinger", -1, [&n, to]() -> Task<> {
            while (true)
                co_await n.net().ping(Cluster::ipFor(to));
        });
    }
    clu.run(90000);
    ASSERT_EQ(clu.saveSnapshot(path), "");
    const std::string pristine = readFile(path);
    SectionImage img(pristine);
    ASSERT_GE(img.names.size(), 10u);

    auto restoreImage = [&](const std::string &image) {
        writeFile(path, image);
        return clu.loadSnapshot(path);
    };
    ASSERT_EQ(restoreImage(pristine), "");

    std::mt19937_64 rng(0x5eed);
    size_t resealed_flips = 0, resealed_flip_errors = 0;
    for (size_t k = 0; k < img.names.size(); ++k) {
        const std::string &name = img.names[k];
        const std::string &payload = img.payloads[k];
        const size_t begin = img.offsets[k], end = img.offsets[k + 1];
        SCOPED_TRACE("section " + name);

        // Raw truncation inside the section, and a raw flip of its
        // last payload byte (just before the CRC): the container
        // rejects both.
        EXPECT_NE(restoreImage(pristine.substr(0, (begin + end) / 2)), "");
        {
            std::string bad = pristine;
            bad[end - 5] ^= 0x01;
            EXPECT_NE(restoreImage(bad), "");
        }
        ASSERT_EQ(restoreImage(pristine), "");

        // Re-sealed truncations reach the decoder, which must notice.
        // An empty payload is included: even a section that decodes
        // to nothing must be rejected when its fields are missing.
        for (size_t keep : {size_t{0}, payload.size() / 2,
                            payload.size() ? payload.size() - 1 : 0}) {
            if (keep >= payload.size())
                continue;
            EXPECT_NE(restoreImage(img.resealed(k, payload.substr(0, keep))),
                      "")
                << "payload truncated to " << keep << " of "
                << payload.size() << " bytes";
            ASSERT_EQ(restoreImage(pristine), "");
        }

        // Re-sealed flips: one to three bytes XORed with a random
        // non-zero mask. Restore may accept or reject; it must return.
        if (payload.empty())
            continue;
        for (int iter = 0; iter < 12; ++iter) {
            std::string bad = payload;
            int flips = 1 + static_cast<int>(rng() % 3);
            for (int f = 0; f < flips; ++f)
                bad[rng() % bad.size()] ^=
                    static_cast<char>(1 + rng() % 255);
            ++resealed_flips;
            if (!restoreImage(img.resealed(k, bad)).empty())
                ++resealed_flip_errors;
            ASSERT_EQ(restoreImage(pristine), "")
                << "flip iteration " << iter
                << " left state the pristine restore rejects";
        }
    }
    RecordProperty("sections", static_cast<int>(img.names.size()));
    RecordProperty("resealed_flips", static_cast<int>(resealed_flips));
    RecordProperty("resealed_flip_errors",
                   static_cast<int>(resealed_flip_errors));
    // Most flips land in fields restore verifies or that the final
    // stats byte-identity check covers.
    EXPECT_GT(resealed_flip_errors, resealed_flips / 2)
        << resealed_flip_errors << " of " << resealed_flips;
}

} // namespace
} // namespace firesim
