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
 *
 * A second test re-seals one channel section with targeted, well-framed
 * corruptions of the token stream (wrong occupancy, stale or misshapen
 * batches, bad flits) that would otherwise only trip the round loop
 * after the restore reported success.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "manager/cluster.hh"
#include "manager/topology.hh"
#include "net/token_io.hh"
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

/** A small cluster with pings in flight, saved once to `path`. */
struct SavedCluster
{
    ScopedTempDir tmp;
    const std::string path = tmp.file("fuzz.snap");
    Cluster clu{topologies::twoLevel(2, 2), config()};
    std::string pristine;

    static ClusterConfig
    config()
    {
        ClusterConfig cc;
        cc.linkLatency = 400;
        cc.telemetry.enabled = true;
        cc.telemetry.samplePeriod = 2000;
        return cc;
    }

    SavedCluster()
    {
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
        EXPECT_EQ(clu.saveSnapshot(path), "");
        pristine = readFile(path);
    }

    /** Restore @p image into the live cluster; "" on success. */
    std::string
    restore(const std::string &image)
    {
        writeFile(path, image);
        return clu.loadSnapshot(path);
    }
};

TEST(SnapshotFuzz, MutatedSectionsAreRejectedAndNeverCrash)
{
    SavedCluster saved;
    const std::string &pristine = saved.pristine;
    SectionImage img(pristine);
    ASSERT_GE(img.names.size(), 10u);
    ASSERT_EQ(saved.restore(pristine), "");

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
        EXPECT_NE(saved.restore(pristine.substr(0, (begin + end) / 2)), "");
        {
            std::string bad = pristine;
            bad[end - 5] ^= 0x01;
            EXPECT_NE(saved.restore(bad), "");
        }
        ASSERT_EQ(saved.restore(pristine), "");

        // Re-sealed truncations reach the decoder, which must notice.
        // An empty payload is included: even a section that decodes
        // to nothing must be rejected when its fields are missing.
        for (size_t keep : {size_t{0}, payload.size() / 2,
                            payload.size() ? payload.size() - 1 : 0}) {
            if (keep >= payload.size())
                continue;
            EXPECT_NE(saved.restore(img.resealed(k, payload.substr(0, keep))),
                      "")
                << "payload truncated to " << keep << " of "
                << payload.size() << " bytes";
            ASSERT_EQ(saved.restore(pristine), "");
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
            if (!saved.restore(img.resealed(k, bad)).empty())
                ++resealed_flip_errors;
            ASSERT_EQ(saved.restore(pristine), "")
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

/** A decoded channel section (TokenChannel::snapshotSave layout). */
struct ChannelImage
{
    uint64_t lat = 0, quant = 0, pushStart = 0, popStart = 0;
    std::vector<TokenBatch> batches;

    explicit ChannelImage(const std::string &payload)
    {
        Deserializer d(payload);
        lat = d.getU();
        quant = d.getU();
        pushStart = d.getU();
        popStart = d.getU();
        uint64_t n = d.getU();
        for (uint64_t i = 0; i < n && d.ok(); ++i)
            batches.push_back(restoreBatch(d));
        EXPECT_TRUE(d.ok() && d.atEnd()) << d.error();
    }

    std::string
    encode() const
    {
        Serializer s;
        s.putU(lat);
        s.putU(quant);
        s.putU(pushStart);
        s.putU(popStart);
        s.putU(batches.size());
        for (const TokenBatch &b : batches)
            saveBatch(s, b);
        return s.takeBytes();
    }
};

TEST(SnapshotFuzz, MalformedChannelSectionsAreRejected)
{
    SavedCluster saved;
    SectionImage img(saved.pristine);
    size_t k = 0;
    while (k < img.names.size() && img.names[k] != "chan0")
        ++k;
    ASSERT_LT(k, img.names.size());
    const ChannelImage chan(img.payloads[k]);
    ASSERT_EQ(chan.encode(), img.payloads[k]);
    ASSERT_EQ(chan.batches.size(), chan.lat / chan.quant);

    auto flit = [](uint32_t offset, uint8_t size) {
        Flit f;
        f.offset = offset;
        f.size = size;
        return f;
    };
    struct Case
    {
        const char *name;
        const char *error; //!< expected in the restore diagnostic
        std::function<void(ChannelImage &)> mutate;
    };
    const std::vector<Case> cases = {
        {"extra batch", "batches in flight",
         [](ChannelImage &c) {
             c.batches.emplace_back(c.pushStart,
                                    static_cast<uint32_t>(c.quant));
             c.pushStart += c.quant;
         }},
        {"missing batch", "batches in flight",
         [](ChannelImage &c) {
             c.batches.pop_back();
             c.pushStart -= c.quant;
         }},
        {"short batch", "covers",
         [](ChannelImage &c) { c.batches[0].len -= 1; }},
        {"stale batch", "covers",
         [](ChannelImage &c) { c.batches[0].start -= 400; }},
        {"push cursor", "push cursor",
         [](ChannelImage &c) { c.pushStart += c.quant; }},
        {"repeated flit offset", "strictly increasing",
         [&](ChannelImage &c) {
             c.batches[0].flits = {flit(3, 8), flit(3, 8)};
         }},
        {"flit offset past len", "outside batch len",
         [&](ChannelImage &c) {
             c.batches[0].flits = {flit(c.batches[0].len, 8)};
         }},
        {"zero-byte flit", "flit size 0",
         [&](ChannelImage &c) { c.batches[0].flits = {flit(3, 0)}; }},
        {"nine-byte flit", "flit size 9",
         [&](ChannelImage &c) { c.batches[0].flits = {flit(3, 9)}; }},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.name);
        ChannelImage bad = chan;
        tc.mutate(bad);
        std::string err = saved.restore(img.resealed(k, bad.encode()));
        EXPECT_NE(err.find(tc.error), std::string::npos) << err;
        ASSERT_EQ(saved.restore(saved.pristine), "");
    }
}

} // namespace
} // namespace firesim
