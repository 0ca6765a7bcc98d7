#include "core/bitvector.hpp"

#include <algorithm>
#include <bit>

#include "check/audit.hpp"
#include "core/cost_model.hpp"

namespace utlb::core {

namespace {

/** Shared cost curves (Table 1 "check" rows). */
const HostCosts &
costs()
{
    static const HostCosts c;
    return c;
}

} // namespace

std::uint64_t &
PinBitVector::ensure(std::uint64_t word_index)
{
    if (words.empty()) {
        baseWord = word_index;
    } else if (word_index < baseWord) {
        // Grow downwards by at least the current span, so a run of
        // sets walking down the address space stays amortized O(1).
        std::uint64_t grow = std::max<std::uint64_t>(
            baseWord - word_index, words.size());
        grow = std::min(grow, baseWord);
        words.insert(words.begin(), grow, 0);
        baseWord -= grow;
    }
    std::uint64_t i = word_index - baseWord;
    if (i >= words.size())
        words.resize(i + 1, 0);
    return words[i];
}

void
PinBitVector::set(mem::Vpn vpn)
{
    std::uint64_t bit = std::uint64_t{1} << (vpn % 64);
    std::uint64_t &word = ensure(vpn / 64);
    if (!(word & bit)) {
        word |= bit;
        ++numSet;
    }
}

void
PinBitVector::clear(mem::Vpn vpn)
{
    std::uint64_t i = vpn / 64 - baseWord;
    if (i >= words.size())
        return;
    std::uint64_t bit = std::uint64_t{1} << (vpn % 64);
    if (words[i] & bit) {
        words[i] &= ~bit;
        --numSet;
    }
}

bool
PinBitVector::test(mem::Vpn vpn) const
{
    return (wordAt(vpn / 64) >> (vpn % 64)) & 1;
}

namespace {

/**
 * Bits of a 64-bit word that fall inside [start, end) when the word
 * covers pages [w*64, w*64 + 64).
 */
std::uint64_t
rangeMask(std::uint64_t w, mem::Vpn start, mem::Vpn end)
{
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == start / 64)
        mask &= ~std::uint64_t{0} << (start % 64);
    if (w == (end - 1) / 64 && end % 64 != 0)
        mask &= ~std::uint64_t{0} >> (64 - end % 64);
    return mask;
}

} // namespace

mem::Vpn
PinBitVector::scanClear(mem::Vpn start, std::size_t npages) const
{
    if (npages == 0)
        return kNoVpn;
    mem::Vpn end = start + npages;
    std::uint64_t wstart = start / 64;
    std::uint64_t wend = (end - 1) / 64;
    for (std::uint64_t w = wstart; w <= wend; ++w) {
        std::uint64_t missing = rangeMask(w, start, end) & ~wordAt(w);
        if (missing) {
            return static_cast<mem::Vpn>(
                w * 64 + static_cast<unsigned>(std::countr_zero(missing)));
        }
    }
    return kNoVpn;
}

std::optional<mem::Vpn>
PinBitVector::firstSetInRange(mem::Vpn start, std::size_t npages) const
{
    if (npages == 0)
        return std::nullopt;
    mem::Vpn end = start + npages;
    // Words outside the stored span are all clear: scan only the
    // overlap of the range with it.
    if (words.empty())
        return std::nullopt;
    std::uint64_t wstart = std::max<std::uint64_t>(start / 64, baseWord);
    std::uint64_t wend = std::min<std::uint64_t>(
        (end - 1) / 64, baseWord + words.size() - 1);
    for (std::uint64_t w = wstart; w <= wend; ++w) {
        std::uint64_t present =
            rangeMask(w, start, end) & words[w - baseWord];
        if (present) {
            return static_cast<mem::Vpn>(
                w * 64 + static_cast<unsigned>(std::countr_zero(present)));
        }
    }
    return std::nullopt;
}

bool
PinBitVector::allSetInRange(mem::Vpn start, std::size_t npages) const
{
    return scanClear(start, npages) == kNoVpn;
}

CheckResult
PinBitVector::checkRange(mem::Vpn start, std::size_t npages) const
{
    CheckResult res{};
    res.allPinned = true;

    // The scan stops at the first zero bit, so the pages (and bitmap
    // words) charged for cover [start, first clear] inclusive — or the
    // whole range when every page is pinned.
    std::size_t scanned_pages = 0;
    if (npages > 0) {
        mem::Vpn last = start + npages - 1;
        mem::Vpn clear = scanClear(start, npages);
        if (clear != kNoVpn) {
            res.allPinned = false;
            res.firstUnpinned = clear;
            last = clear;
        }
        scanned_pages = static_cast<std::size_t>(last - start) + 1;
        res.wordsScanned =
            static_cast<std::size_t>(last / 64 - start / 64) + 1;
    }

    // Cost model (Table 1 "check" rows): finding the zero bit at the
    // very first page is the measured minimum (0.2 us); scanning the
    // whole range costs the measured maximum for that range length.
    if (!res.allPinned && scanned_pages <= 1)
        res.cost = costs().checkCostMin(npages ? npages : 1);
    else
        res.cost = costs().checkCostMax(scanned_pages ? scanned_pages : 1);
    return res;
}

void
PinBitVector::audit(check::AuditReport &report) const
{
    report.component("bitvector");
    std::size_t popcount = 0;
    for (std::uint64_t word : words)
        popcount += static_cast<std::size_t>(std::popcount(word));
    report.require(popcount == numSet,
                   "cached set-bit count %zu != recounted %zu",
                   numSet, popcount);
}

} // namespace utlb::core
