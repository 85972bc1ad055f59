#include "mem/functional_memory.hh"

#include <algorithm>
#include <cstring>

#include "snapshot/serial.hh"

namespace firesim
{

uint8_t *
FunctionalMemory::pageFor(uint64_t addr, bool allocate) const
{
    uint64_t page = addr / kPageBytes;
    if (page == lastPage)
        return lastPtr;
    auto it = pages.find(page);
    if (it != pages.end()) {
        lastPage = page;
        lastPtr = it->second.get();
        return lastPtr;
    }
    if (!allocate)
        return nullptr;
    auto mem = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(mem.get(), 0, kPageBytes);
    uint8_t *raw = mem.get();
    pages.emplace(page, std::move(mem));
    lastPage = page;
    lastPtr = raw;
    return raw;
}

void
FunctionalMemory::addCodeWatch(CodeWriteWatch *watch)
{
    watches.push_back(watch);
}

void
FunctionalMemory::removeCodeWatch(CodeWriteWatch *watch)
{
    watches.erase(std::remove(watches.begin(), watches.end(), watch),
                  watches.end());
}

void
FunctionalMemory::read(uint64_t addr, void *dst, uint64_t len) const
{
    FS_ASSERT(addr + len <= capacity && addr + len >= addr,
              "read [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)addr, (unsigned long long)len,
              (unsigned long long)capacity);
    uint8_t *out = static_cast<uint8_t *>(dst);
    while (len > 0) {
        uint64_t in_page = kPageBytes - addr % kPageBytes;
        uint64_t chunk = std::min(len, in_page);
        const uint8_t *page = pageFor(addr, false);
        if (page)
            std::memcpy(out, page + addr % kPageBytes, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::write(uint64_t addr, const void *src, uint64_t len)
{
    FS_ASSERT(addr + len <= capacity && addr + len >= addr,
              "write [%llx,+%llu) out of bounds (capacity %llx)",
              (unsigned long long)addr, (unsigned long long)len,
              (unsigned long long)capacity);
    if (!watches.empty())
        noteWrite(addr, len);
    const uint8_t *in = static_cast<const uint8_t *>(src);
    while (len > 0) {
        uint64_t in_page = kPageBytes - addr % kPageBytes;
        uint64_t chunk = std::min(len, in_page);
        uint8_t *page = pageFor(addr, true);
        std::memcpy(page + addr % kPageBytes, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::snapshotSave(Serializer &s) const
{
    s.putU(capacity);
    std::vector<uint64_t> indices;
    indices.reserve(pages.size());
    for (const auto &[idx, page] : pages)
        indices.push_back(idx);
    std::sort(indices.begin(), indices.end());
    s.putU(indices.size());
    for (uint64_t idx : indices) {
        s.putU(idx);
        s.putBytes(pages.at(idx).get(), kPageBytes);
    }
}

} // namespace firesim
