#include "mem/address_space.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/log.hpp"

namespace utlb::mem {

using sim::fatal;

AddressSpace::AddressSpace(ProcId pid, PhysMemory &phys_mem)
    : procId(pid), physMem(&phys_mem)
{
    // Pte::frameTag holds frame + 1 in 32 bits.
    if (phys_mem.totalFrames() >= ~std::uint32_t{0})
        sim::panic("AddressSpace: %zu frames do not fit a page-table "
                   "entry", phys_mem.totalFrames());
}

AddressSpace::~AddressSpace()
{
    release(false);
}

AddressSpace::Pte &
AddressSpace::entry(Vpn vpn)
{
    auto [leaf, fresh] = leaves.tryEmplace(vpn >> kLeafBits);
    if (fresh)
        *leaf = std::make_unique<Leaf>();
    return (*leaf)->ptes[vpn & kLeafMask];
}

bool
AddressSpace::mapFresh(Pte &e)
{
    auto pfn = physMem->allocFrame(procId);
    if (!pfn)
        return false;
    e.frameTag = static_cast<std::uint32_t>(*pfn + 1);
    ++numMapped;
    return true;
}

std::optional<Pfn>
AddressSpace::touch(Vpn vpn)
{
    Pte &e = entry(vpn);
    if (!e.mapped() && !mapFresh(e))
        return std::nullopt;
    return e.frame();
}

std::optional<Pfn>
AddressSpace::lookup(Vpn vpn) const
{
    const Pte *e = find(vpn);
    if (!e || !e->mapped())
        return std::nullopt;
    return e->frame();
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
    Pte *e = find(vpn);
    if (!e || !e->mapped())
        return;
    UTLB_ASSERT(e->pins == 0, "unmap of pinned page %llu",
                static_cast<unsigned long long>(vpn));
    physMem->freeFrame(e->frame());
    e->frameTag = 0;
    --numMapped;
}

void
AddressSpace::unmapAll()
{
    release(true);
}

void
AddressSpace::release([[maybe_unused]] bool checked)
{
    std::vector<std::pair<std::uint64_t, Leaf *>> order;
    order.reserve(leaves.size());
    for (const auto &[key, leaf] : leaves)
        order.emplace_back(key, leaf.get());
    std::sort(order.begin(), order.end());
    for (const auto &[key, leaf] : order) {
        for (const Pte &e : leaf->ptes) {
            if (!e.mapped())
                continue;
            UTLB_ASSERT(!checked || e.pins == 0,
                        "unmapAll with a pinned page in leaf %llu",
                        static_cast<unsigned long long>(key));
            physMem->freeFrame(e.frame());
        }
    }
    leaves = {};
    numMapped = 0;
}

std::size_t
AddressSpace::countPinned() const
{
    std::size_t n = 0;
    for (const auto &[key, leaf] : leaves) {
        for (const Pte &e : leaf->ptes)
            n += e.pins != 0;
    }
    return n;
}

void
AddressSpace::clearPins()
{
    for (auto &[key, leaf] : leaves) {
        for (Pte &e : leaf->ptes)
            e.pins = 0;
    }
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
