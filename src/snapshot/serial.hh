/**
 * @file
 * Byte-stream primitives for component state.
 *
 * Every stateful component writes its simulated state with
 * snapshotSave(Serializer &); the Cluster collects those bytes, one
 * named section per component, into its state image
 * (Cluster::stateImage), which parity tests compare between two live
 * runs. A Serializer appends varint-backed, length-prefixed fields to
 * a growable byte buffer. A Deserializer reads them back with full
 * bounds checking: a decode error is recorded as a diagnostic string
 * and the stream degrades to returning zeros, never to UB. Tests use
 * it to look inside a section.
 *
 * The varint/zigzag encoding is the tree-wide one from base/varint.hh,
 * the same bytes the distributed wire protocol uses.
 */

#ifndef FIRESIM_SNAPSHOT_SERIAL_HH
#define FIRESIM_SNAPSHOT_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "base/varint.hh"

namespace firesim
{

/** Appends state fields to a byte buffer. */
class Serializer
{
  public:
    /** Unsigned varint (the default integer encoding). */
    void putU(uint64_t v) { putVarint(buf, v); }

    /** Signed value via zigzag varint. */
    void putI(int64_t v) { putVarint(buf, zigzag(v)); }

    /** Bool as one byte. */
    void putB(bool v) { buf.push_back(v ? 1 : 0); }

    /** Fixed-width little-endian u32. */
    void
    putFixed32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    /** Fixed-width little-endian u64. */
    void
    putFixed64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    /** Double, bit-exact via its u64 representation. */
    void
    putD(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putFixed64(bits);
    }

    /** Length-prefixed raw bytes. */
    void
    putBytes(const void *data, size_t len)
    {
        putU(len);
        buf.append(static_cast<const char *>(data), len);
    }

    /** Length-prefixed string. */
    void putStr(const std::string &s) { putBytes(s.data(), s.size()); }

    const std::string &bytes() const { return buf; }
    std::string takeBytes() { return std::move(buf); }
    size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/**
 * Reads fields written by a Serializer. Never panics on malformed
 * input: the first decode error latches fail(), subsequent reads
 * return zeros/empties, and error() names the offending byte offset.
 * Callers check ok() at component boundaries.
 */
class Deserializer
{
  public:
    explicit Deserializer(std::string bytes) : buf(std::move(bytes)) {}

    uint64_t
    getU()
    {
        if (failed)
            return 0;
        uint64_t v = 0;
        if (!takeVarint(v))
            return 0;
        return v;
    }

    int64_t getI() { return unzigzag(getU()); }

    bool getB() { return getByte() != 0; }

    uint32_t
    getFixed32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(getByte()) << (8 * i);
        return v;
    }

    uint64_t
    getFixed64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(getByte()) << (8 * i);
        return v;
    }

    double
    getD()
    {
        uint64_t bits = getFixed64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    getStr()
    {
        uint64_t len = getU();
        if (failed)
            return {};
        if (len > buf.size() - pos_) {
            fail(csprintf("byte string of %llu bytes overruns stream "
                          "(%zu bytes left)",
                          (unsigned long long)len, buf.size() - pos_));
            return {};
        }
        std::string out = buf.substr(pos_, len);
        pos_ += len;
        return out;
    }

    /** Copy a length-prefixed byte field into @p dst (exactly @p len
     *  bytes expected); false and fail() on any mismatch. */
    bool
    getBytesInto(void *dst, size_t len)
    {
        uint64_t stored = getU();
        if (failed)
            return false;
        if (stored != len) {
            fail(csprintf("byte field is %llu bytes, expected %zu",
                          (unsigned long long)stored, len));
            return false;
        }
        if (len > buf.size() - pos_) {
            fail("byte field overruns stream");
            return false;
        }
        std::memcpy(dst, buf.data() + pos_, len);
        pos_ += len;
        return true;
    }

    bool ok() const { return !failed; }
    const std::string &error() const { return err; }
    size_t pos() const { return pos_; }
    size_t remaining() const { return buf.size() - pos_; }
    bool atEnd() const { return pos_ == buf.size(); }

    /** Latch a decode failure (also used by callers for semantic
     *  errors discovered mid-stream). */
    void
    fail(std::string why)
    {
        if (!failed) {
            failed = true;
            err = csprintf("snapshot decode error at byte %zu: %s", pos_,
                           why.c_str());
        }
    }

  private:
    uint8_t
    getByte()
    {
        if (failed)
            return 0;
        if (pos_ >= buf.size()) {
            fail("truncated stream");
            return 0;
        }
        return static_cast<uint8_t>(buf[pos_++]);
    }

    bool
    takeVarint(uint64_t &out)
    {
        uint64_t v = 0;
        uint32_t shift = 0;
        size_t p = pos_;
        while (true) {
            if (p >= buf.size()) {
                fail("truncated varint");
                return false;
            }
            if (shift > 63) {
                fail("varint wider than 64 bits");
                return false;
            }
            uint8_t byte = static_cast<uint8_t>(buf[p++]);
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                out = v;
                pos_ = p;
                return true;
            }
            shift += 7;
        }
    }

    std::string buf;
    size_t pos_ = 0;
    bool failed = false;
    std::string err;
};

} // namespace firesim

#endif // FIRESIM_SNAPSHOT_SERIAL_HH
