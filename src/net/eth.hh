/**
 * @file
 * Minimal Ethernet framing: MAC addresses, frame build/parse, and
 * packet <-> flit-stream conversion.
 *
 * The switch model is link-layer aware only to the extent the paper's is:
 * it reads the destination MAC for forwarding and otherwise treats frames
 * as opaque byte strings. Everything above Ethernet lives in the
 * simulated OS network stack (src/os) or applications (src/apps).
 */

#ifndef FIRESIM_NET_ETH_HH
#define FIRESIM_NET_ETH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"
#include "net/token.hh"

namespace firesim
{

/** 48-bit MAC address stored in the low bits of a uint64_t. */
struct MacAddr
{
    uint64_t value = 0;

    static constexpr uint64_t kMask = 0xffffffffffffULL;

    MacAddr() = default;
    explicit MacAddr(uint64_t v) : value(v & kMask) {}

    bool operator==(const MacAddr &o) const { return value == o.value; }
    bool operator!=(const MacAddr &o) const { return value != o.value; }
    bool operator<(const MacAddr &o) const { return value < o.value; }

    /** The broadcast address ff:ff:ff:ff:ff:ff. */
    static MacAddr broadcast() { return MacAddr(kMask); }

    bool isBroadcast() const { return value == kMask; }

    /** Render as the usual colon-separated hex string. */
    std::string str() const;
};

/** Ethernet header length: dst(6) + src(6) + ethertype(2). */
constexpr uint32_t kEthHeaderBytes = 14;

/** EtherTypes used by the simulated stacks. */
enum class EtherType : uint16_t
{
    Ipv4 = 0x0800,      //!< carried by the OS network stack
    Raw = 0x88b5,       //!< bare-metal test traffic (local experimental)
    RemoteMem = 0x88b6, //!< PFA / memory-blade protocol (Section VI)
};

/**
 * A fully formed Ethernet frame plus simulation timing metadata.
 * `bytes` always contains the 14-byte header followed by the payload.
 */
struct EthFrame
{
    std::vector<uint8_t> bytes;

    /**
     * Timestamp whose meaning depends on context: inside a switch it is
     * the release time (arrival of last token + switching latency); in a
     * NIC receive buffer it is the cycle the last token arrived.
     */
    Cycles timestamp = 0;

    EthFrame() = default;

    /** Build a frame from addressing and payload. */
    EthFrame(MacAddr dst, MacAddr src, EtherType type,
             const std::vector<uint8_t> &payload);

    MacAddr dst() const;
    MacAddr src() const;
    EtherType etherType() const;

    /** Payload view (bytes after the header). */
    std::vector<uint8_t> payload() const;

    /** Total size in bytes. */
    uint32_t size() const { return static_cast<uint32_t>(bytes.size()); }

    /** Number of tokens/cycles this frame occupies on a line-rate link. */
    uint32_t
    flitCount() const
    {
        return (size() + kFlitBytes - 1) / kFlitBytes;
    }
};

/**
 * Incrementally reassembles a frame from a flit stream (used by switch
 * ingress ports and the NIC receive path).
 */
class FrameAssembler
{
  public:
    /**
     * Feed one flit.
     * @param flit the incoming token
     * @param abs_cycle absolute target cycle of the token's arrival
     * @param out filled with the completed frame when this flit is last
     * @return true when a full frame was produced into @p out
     */
    bool feed(const Flit &flit, Cycles abs_cycle, EthFrame &out);

    /** True while a partial frame is buffered. */
    bool inProgress() const { return !partial.empty(); }

    /** Drop any partial frame state. */
    void reset() { partial.clear(); }

    /** Buffered bytes of the in-progress frame (checkpoint support). */
    const std::vector<uint8_t> &partialBytes() const { return partial; }

  private:
    std::vector<uint8_t> partial;
};

/**
 * Splits a frame into flits. The caller decides at which cycle each flit
 * is emitted (rate limiting happens in the NIC, serialization in the
 * switch egress port).
 */
class FrameSerializer
{
  public:
    explicit FrameSerializer(const EthFrame &frame) : src(&frame) {}

    /** True when all flits have been emitted. */
    bool done() const { return pos >= src->bytes.size(); }

    /** Produce the next flit (offset field left 0 for the caller). */
    Flit next();

    /** Flits remaining. */
    uint32_t
    remaining() const
    {
        uint32_t left = static_cast<uint32_t>(src->bytes.size() - pos);
        return (left + kFlitBytes - 1) / kFlitBytes;
    }

  private:
    const EthFrame *src;
    size_t pos = 0;
};

} // namespace firesim

#endif // FIRESIM_NET_ETH_HH
