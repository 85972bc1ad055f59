/**
 * @file
 * Deterministic mutation fuzzing of cluster snapshot restore, in the
 * style of decode_fuzz_test: no external fuzzer, a fixed seed, and
 * every mutation reproducible from its section name and index.
 *
 * Restore is replay plus a byte compare: the cluster is already at the
 * snapshot cycle, and loadSnapshot re-serializes every live component
 * and compares it with the saved section, writing nothing back. A
 * small cluster saves one snapshot with traffic in flight. Every
 * section of that image is then mutated two ways:
 *  - raw: the file itself is truncated inside the section or has a
 *    payload byte flipped. The container must reject it (truncation
 *    or CRC mismatch) before any section is compared.
 *  - re-sealed: the section payload is truncated or byte-flipped and
 *    the image re-encoded with fresh CRCs, so the mutated bytes reach
 *    the section checks. Every truncation must be reported, and so
 *    must every flip in a component section; only the "plan" section
 *    may accept a flip (a flipped plan hash reads as another plan).
 * After each mutated restore, re-saving the cluster must reproduce the
 * pristine image byte for byte: a restore never changes the cluster.
 *
 * A second test re-seals one channel section with targeted, well-framed
 * corruptions of the token stream (wrong occupancy, stale or misshapen
 * batches, bad flits); each must be reported as a divergence of that
 * channel's section.
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

    /** The image the live cluster saves now. */
    std::string
    resaved()
    {
        const std::string again = tmp.file("again.snap");
        EXPECT_EQ(clu.saveSnapshot(again), "");
        return readFile(again);
    }
};

TEST(SnapshotFuzz, MutatedSectionsAreRejectedAndNeverCrash)
{
    SavedCluster saved;
    const std::string &pristine = saved.pristine;
    SectionImage img(pristine);
    ASSERT_GE(img.names.size(), 10u);
    ASSERT_EQ(saved.restore(pristine), "");
    ASSERT_EQ(saved.resaved(), pristine);

    std::mt19937_64 rng(0x5eed);
    size_t resealed_flips = 0, resealed_flip_errors = 0;
    for (size_t k = 0; k < img.names.size(); ++k) {
        const std::string &name = img.names[k];
        const std::string &payload = img.payloads[k];
        const size_t begin = img.offsets[k], end = img.offsets[k + 1];
        const bool component = name != "plan" && name != "transport";
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
        ASSERT_EQ(saved.resaved(), pristine);

        // Re-sealed truncations reach the section checks, which must
        // notice. An empty payload is included.
        for (size_t keep : {size_t{0}, payload.size() / 2,
                            payload.size() ? payload.size() - 1 : 0}) {
            if (keep >= payload.size())
                continue;
            EXPECT_NE(saved.restore(img.resealed(k, payload.substr(0, keep))),
                      "")
                << "payload truncated to " << keep << " of "
                << payload.size() << " bytes";
            ASSERT_EQ(saved.resaved(), pristine)
                << "truncation to " << keep << " changed the cluster";
        }

        // Re-sealed flips: one to three bytes XORed with a random
        // non-zero mask. A component section must reject every one.
        if (payload.empty())
            continue;
        for (int iter = 0; iter < 12; ++iter) {
            std::string bad = payload;
            int flips = 1 + static_cast<int>(rng() % 3);
            for (int f = 0; f < flips; ++f)
                bad[rng() % bad.size()] ^=
                    static_cast<char>(1 + rng() % 255);
            ++resealed_flips;
            std::string e = saved.restore(img.resealed(k, bad));
            if (!e.empty())
                ++resealed_flip_errors;
            if (component && bad != payload) {
                EXPECT_NE(e, "") << "flip iteration " << iter;
            }
            ASSERT_EQ(saved.resaved(), pristine)
                << "flip iteration " << iter << " changed the cluster";
        }
    }
    RecordProperty("sections", static_cast<int>(img.names.size()));
    RecordProperty("resealed_flips", static_cast<int>(resealed_flips));
    RecordProperty("resealed_flip_errors",
                   static_cast<int>(resealed_flip_errors));
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
        for (uint64_t i = 0; i < n && d.ok(); ++i) {
            TokenBatch &b = batches.emplace_back();
            b.start = d.getU();
            b.len = static_cast<uint32_t>(d.getU());
            uint64_t flits = d.getU();
            for (uint64_t f = 0; f < flits && d.ok(); ++f) {
                Flit &fl = b.flits.emplace_back();
                fl.offset = static_cast<uint32_t>(d.getU());
                fl.last = d.getB();
                fl.size = static_cast<uint8_t>(d.getU());
                d.getBytesInto(fl.data.data(), fl.data.size());
            }
        }
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
        std::function<void(ChannelImage &)> mutate;
    };
    const std::vector<Case> cases = {
        {"extra batch",
         [](ChannelImage &c) {
             c.batches.emplace_back(c.pushStart,
                                    static_cast<uint32_t>(c.quant));
             c.pushStart += c.quant;
         }},
        {"missing batch",
         [](ChannelImage &c) {
             c.batches.pop_back();
             c.pushStart -= c.quant;
         }},
        {"short batch", [](ChannelImage &c) { c.batches[0].len -= 1; }},
        {"stale batch", [](ChannelImage &c) { c.batches[0].start -= 400; }},
        {"push cursor", [](ChannelImage &c) { c.pushStart += c.quant; }},
        {"repeated flit offset",
         [&](ChannelImage &c) {
             c.batches[0].flits = {flit(3, 8), flit(3, 8)};
         }},
        {"flit offset past len",
         [&](ChannelImage &c) {
             c.batches[0].flits = {flit(c.batches[0].len, 8)};
         }},
        {"zero-byte flit",
         [&](ChannelImage &c) { c.batches[0].flits = {flit(3, 0)}; }},
        {"nine-byte flit",
         [&](ChannelImage &c) { c.batches[0].flits = {flit(3, 9)}; }},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.name);
        ChannelImage bad = chan;
        tc.mutate(bad);
        std::string err = saved.restore(img.resealed(k, bad.encode()));
        EXPECT_NE(err.find("section 'chan0' diverges from snapshot"),
                  std::string::npos)
            << err;
        ASSERT_EQ(saved.resaved(), saved.pristine);
    }
}

} // namespace
} // namespace firesim
