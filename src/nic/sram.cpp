#include "nic/sram.hpp"

#include <cstring>

#include "sim/log.hpp"

namespace utlb::nic {

using sim::panic;

Sram::Sram(std::size_t capacity) : cap(capacity), bytes(capacity) {}

std::optional<SramAddr>
Sram::alloc(const std::string &name, std::size_t size)
{
    if (size == 0)
        panic("Sram::alloc of zero bytes for region '%s'", name.c_str());
    // First-fit from the freed-region holes: tenant churn frees and
    // reclaims same-sized per-process regions, so the first hole
    // usually fits exactly. Hole bases are 8-aligned by
    // construction (every region base is), so no re-align needed.
    for (std::size_t i = 0; i < holes.size(); ++i) {
        Hole &h = holes[i];
        if (h.size < size)
            continue;
        SramAddr base = h.base;
        std::size_t leftover = h.size - size;
        holeBytes -= size;
        if (leftover >= 8) {
            h.base = static_cast<SramAddr>((base + size + 7)
                                           & ~std::size_t{7});
            std::size_t pad = (h.base - base) - size;
            h.size = leftover - pad;
            holeBytes -= pad;
        } else {
            holeBytes -= leftover;
            holes.erase(holes.begin()
                        + static_cast<std::ptrdiff_t>(i));
        }
        regions.push_back(Region{name, base, size});
        ++statAllocs;
        statAllocBytes += size;
        return base;
    }
    // Align regions to 8 bytes.
    std::size_t base = (nextFree + 7) & ~std::size_t{7};
    if (base + size > cap)
        return std::nullopt;
    nextFree = base + size;
    regions.push_back(Region{name, static_cast<SramAddr>(base), size});
    ++statAllocs;
    statAllocBytes += size;
    return static_cast<SramAddr>(base);
}

bool
Sram::free(const std::string &name)
{
    // Per-pid regions churn newest-first, so search from the back.
    for (std::size_t i = regions.size(); i-- > 0;) {
        if (regions[i].name != name)
            continue;
        Region r = regions[i];
        regions.erase(regions.begin()
                      + static_cast<std::ptrdiff_t>(i));
        // Scrub: a stale directory must not be readable through a
        // recycled region.
        std::memset(bytes.data() + r.base, 0, r.size);
        holes.push_back(Hole{r.base, r.size});
        holeBytes += r.size;
        ++statFrees;
        statFreedBytes += r.size;
        return true;
    }
    return false;
}

std::optional<SramAddr>
Sram::regionBase(const std::string &name) const
{
    for (const auto &r : regions) {
        if (r.name == name)
            return r.base;
    }
    return std::nullopt;
}

std::size_t
Sram::regionSize(const std::string &name) const
{
    for (const auto &r : regions) {
        if (r.name == name)
            return r.size;
    }
    return 0;
}

void
Sram::checkRange(SramAddr addr, std::size_t len) const
{
    if (addr + len > cap)
        panic("SRAM access [%u, +%zu) beyond capacity %zu",
              addr, len, cap);
}

void
Sram::read(SramAddr addr, std::span<std::uint8_t> out) const
{
    checkRange(addr, out.size());
    ++statReads;
    std::memcpy(out.data(), bytes.data() + addr, out.size());
}

void
Sram::write(SramAddr addr, std::span<const std::uint8_t> in)
{
    checkRange(addr, in.size());
    ++statWrites;
    std::memcpy(bytes.data() + addr, in.data(), in.size());
}

std::uint32_t
Sram::readWord(SramAddr addr) const
{
    checkRange(addr, 4);
    ++statReads;
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + addr, 4);
    return v;
}

void
Sram::writeWord(SramAddr addr, std::uint32_t value)
{
    checkRange(addr, 4);
    ++statWrites;
    std::memcpy(bytes.data() + addr, &value, 4);
}

void
Sram::reset()
{
    bytes = sim::ZeroedPages(cap);
    regions.clear();
    holes.clear();
    holeBytes = 0;
    nextFree = 0;
}

} // namespace utlb::nic
