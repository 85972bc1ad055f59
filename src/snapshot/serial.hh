/**
 * @file
 * Byte-stream primitives for component state.
 *
 * Every stateful component writes its simulated state with
 * snapshotSave(Serializer &); the Cluster collects those bytes, one
 * named section per component, into its state image
 * (Cluster::stateImage), which parity tests compare between two live
 * runs. A Serializer appends varint-backed, length-prefixed fields to
 * a growable byte buffer. Nothing reads the bytes back: a state image
 * is only ever compared, so a section's bytes are its whole contract,
 * and tests that look inside one compare it with the bytes a
 * Serializer writes for the expected state.
 *
 * The varint/zigzag encoding is the tree-wide one from base/varint.hh,
 * the same bytes the distributed wire protocol uses.
 */

#ifndef FIRESIM_SNAPSHOT_SERIAL_HH
#define FIRESIM_SNAPSHOT_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <string>

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

} // namespace firesim

#endif // FIRESIM_SNAPSHOT_SERIAL_HH
