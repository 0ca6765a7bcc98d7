#include "mem/address_space.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace utlb::mem {

using sim::fatal;

AddressSpace::~AddressSpace()
{
    unmapAll();
}

std::optional<Pfn>
AddressSpace::touch(Vpn vpn)
{
    auto it = table.find(vpn);
    if (it != table.end())
        return it->second;
    auto pfn = physMem->allocFrame(procId);
    if (!pfn)
        return std::nullopt;
    table.emplace(vpn, *pfn);
    return pfn;
}

std::optional<Pfn>
AddressSpace::lookup(Vpn vpn) const
{
    auto it = table.find(vpn);
    if (it == table.end())
        return std::nullopt;
    return it->second;
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
    auto it = table.find(vpn);
    if (it == table.end())
        return;
    physMem->freeFrame(it->second);
    table.erase(it);
}

void
AddressSpace::unmapAll()
{
    for (const auto &[vpn, pfn] : table)
        physMem->freeFrame(pfn);
    table.clear();
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
