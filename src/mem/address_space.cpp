#include "mem/address_space.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/log.hpp"

namespace utlb::mem {

using sim::fatal;

AddressSpace::~AddressSpace()
{
    unmapAll();
}

std::optional<Pfn>
AddressSpace::touch(Vpn vpn, bool *mapped_now)
{
    if (mapped_now)
        *mapped_now = false;
    if (const Pfn *pfn = table.find(vpn))
        return *pfn;
    auto pfn = physMem->allocFrame(procId);
    if (!pfn)
        return std::nullopt;
    table[vpn] = *pfn;
    if (mapped_now)
        *mapped_now = true;
    return pfn;
}

std::optional<Pfn>
AddressSpace::lookup(Vpn vpn) const
{
    const Pfn *pfn = table.find(vpn);
    if (!pfn)
        return std::nullopt;
    return *pfn;
}

std::optional<PhysAddr>
AddressSpace::translate(VirtAddr va)
{
    auto pfn = touch(pageOf(va));
    if (!pfn)
        return std::nullopt;
    return frameAddr(*pfn) + offsetOf(va);
}

void
AddressSpace::unmap(Vpn vpn)
{
    const Pfn *pfn = table.find(vpn);
    if (!pfn)
        return;
    physMem->freeFrame(*pfn);
    table.erase(vpn);
}

void
AddressSpace::unmapAll()
{
    std::vector<std::pair<Vpn, Pfn>> maps;
    maps.reserve(table.size());
    for (const auto &[vpn, pfn] : table)
        maps.emplace_back(vpn, pfn);
    std::sort(maps.begin(), maps.end());
    for (const auto &[vpn, pfn] : maps)
        physMem->freeFrame(pfn);
    table = {};
}

void
AddressSpace::readBytes(VirtAddr va, std::span<std::uint8_t> out)
{
    std::size_t done = 0;
    while (done < out.size()) {
        std::size_t in_page = std::min(out.size() - done,
                                       kPageSize - offsetOf(va + done));
        auto pa = translate(va + done);
        if (!pa)
            fatal("readBytes: out of physical memory");
        physMem->read(*pa, out.subspan(done, in_page));
        done += in_page;
    }
}

void
AddressSpace::writeBytes(VirtAddr va, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        std::size_t in_page = std::min(in.size() - done,
                                       kPageSize - offsetOf(va + done));
        auto pa = translate(va + done);
        if (!pa)
            fatal("writeBytes: out of physical memory");
        physMem->write(*pa, in.subspan(done, in_page));
        done += in_page;
    }
}

} // namespace utlb::mem
