#include "net/eth.hh"

#include <cstdio>
#include <cstring>

#include "base/logging.hh"

namespace firesim
{

std::string
MacAddr::str() const
{
    char buf[18];
    std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x",
                  (unsigned)((value >> 40) & 0xff),
                  (unsigned)((value >> 32) & 0xff),
                  (unsigned)((value >> 24) & 0xff),
                  (unsigned)((value >> 16) & 0xff),
                  (unsigned)((value >> 8) & 0xff),
                  (unsigned)(value & 0xff));
    return buf;
}

namespace
{

void
writeMac(std::vector<uint8_t> &bytes, size_t at, MacAddr mac)
{
    for (int i = 0; i < 6; ++i)
        bytes[at + i] = static_cast<uint8_t>(mac.value >> (8 * (5 - i)));
}

MacAddr
readMac(const std::vector<uint8_t> &bytes, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 6; ++i)
        v = (v << 8) | bytes[at + i];
    return MacAddr(v);
}

} // namespace

EthFrame::EthFrame(MacAddr dst_mac, MacAddr src_mac, EtherType type,
                   const std::vector<uint8_t> &payload)
{
    bytes.resize(kEthHeaderBytes + payload.size());
    writeMac(bytes, 0, dst_mac);
    writeMac(bytes, 6, src_mac);
    uint16_t t = static_cast<uint16_t>(type);
    bytes[12] = static_cast<uint8_t>(t >> 8);
    bytes[13] = static_cast<uint8_t>(t & 0xff);
    std::memcpy(bytes.data() + kEthHeaderBytes, payload.data(),
                payload.size());
}

MacAddr
EthFrame::dst() const
{
    FS_ASSERT(bytes.size() >= kEthHeaderBytes, "frame too short");
    return readMac(bytes, 0);
}

MacAddr
EthFrame::src() const
{
    FS_ASSERT(bytes.size() >= kEthHeaderBytes, "frame too short");
    return readMac(bytes, 6);
}

EtherType
EthFrame::etherType() const
{
    FS_ASSERT(bytes.size() >= kEthHeaderBytes, "frame too short");
    return static_cast<EtherType>((bytes[12] << 8) | bytes[13]);
}

std::vector<uint8_t>
EthFrame::payload() const
{
    FS_ASSERT(bytes.size() >= kEthHeaderBytes, "frame too short");
    return std::vector<uint8_t>(bytes.begin() + kEthHeaderBytes,
                                bytes.end());
}

bool
FrameAssembler::feed(const Flit &flit, Cycles abs_cycle, EthFrame &out)
{
    partial.insert(partial.end(), flit.data.begin(),
                   flit.data.begin() + flit.size);
    if (!flit.last)
        return false;
    out.bytes.clear();
    out.bytes.swap(partial);
    out.timestamp = abs_cycle;
    return true;
}

Flit
FrameSerializer::next()
{
    FS_ASSERT(!done(), "serializer exhausted");
    Flit flit;
    size_t take = std::min<size_t>(kFlitBytes, src->bytes.size() - pos);
    std::memcpy(flit.data.data(), src->bytes.data() + pos, take);
    flit.size = static_cast<uint8_t>(take);
    pos += take;
    flit.last = pos >= src->bytes.size();
    return flit;
}

} // namespace firesim
