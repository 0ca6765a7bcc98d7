/**
 * @file
 * Pinned-page bit vector (§3.3, Figure 4).
 *
 * Under Hierarchical-UTLB the user-level library "only needs a bit
 * array to maintain the memory-pinning status of virtual pages". The
 * check procedure scans the bits covering a buffer; its cost varies
 * with where the first zero bit falls in a machine word (Table 1
 * reports min and max costs over all bit positions), which this
 * class models explicitly.
 */

#ifndef UTLB_CORE_BITVECTOR_HPP
#define UTLB_CORE_BITVECTOR_HPP

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/test_tamper.hpp"
#include "mem/page.hpp"
#include "sim/types.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::core {

/**
 * "No page" sentinel of PinBitVector::scanClear(). Never a real page
 * of a scanned range: such a range would end past the last vpn.
 */
inline constexpr mem::Vpn kNoVpn = ~mem::Vpn{0};

/** Result of a pin-status check over a page range. */
struct CheckResult {
    bool allPinned;                 //!< every page in range pinned
    mem::Vpn firstUnpinned;         //!< valid iff !allPinned
    std::size_t wordsScanned;       //!< bitmap words touched
    sim::Tick cost;                 //!< modeled host time
};

/**
 * A growable bit vector over virtual page numbers.
 *
 * Bits are stored in 64-bit words, starting at the lowest word ever
 * set rather than at vpn 0: a process whose pages sit far from 0
 * pays only for the span it touches. Words outside the stored span
 * read as clear. checkRange() reports how many
 * words it scanned and the modeled cost, reproducing Table 1's
 * position-dependent check timing (0.2 us best case, up to 0.7 us
 * over 32 pages).
 */
class PinBitVector
{
  public:
    PinBitVector() = default;

    /** Set the pinned bit of @p vpn. */
    void set(mem::Vpn vpn);

    /** Clear the pinned bit of @p vpn. */
    void clear(mem::Vpn vpn);

    /** Test a single page. */
    bool test(mem::Vpn vpn) const;

    /** Number of set bits. */
    std::size_t count() const { return numSet; }

    /**
     * Scan [start, start + npages) for the first unpinned page.
     *
     * The modeled cost is a base charge plus a per-word charge,
     * stopping at the first zero bit — i.e. the check is cheapest
     * when the first page is already unpinned and most expensive
     * when the whole range must be scanned.
     */
    CheckResult checkRange(mem::Vpn start, std::size_t npages) const;

    /**
     * True if every page of [start, start + npages) is set. Scans a
     * whole 64-page word per iteration; an empty range is trivially
     * all-set.
     */
    bool allSetInRange(mem::Vpn start, std::size_t npages) const;

    /**
     * First clear page in [start, start + npages), or kNoVpn if the
     * range is fully set (or empty). Word-at-a-time scan. The result
     * is a plain word, not an optional: checkRange() runs it on every
     * ensurePinned(), and an optional's engaged flag travels through
     * the stack.
     */
    mem::Vpn scanClear(mem::Vpn start, std::size_t npages) const;

    /** scanClear() as an optional: nullopt if the range is fully set. */
    std::optional<mem::Vpn>
    firstClearInRange(mem::Vpn start, std::size_t npages) const
    {
        mem::Vpn v = scanClear(start, npages);
        return v == kNoVpn ? std::nullopt : std::optional<mem::Vpn>(v);
    }

    /**
     * First set page in [start, start + npages), or nullopt if the
     * range is fully clear. Word-at-a-time scan.
     */
    std::optional<mem::Vpn>
    firstSetInRange(mem::Vpn start, std::size_t npages) const;

    /** Bytes of user memory consumed by the bitmap. */
    std::size_t footprintBytes() const { return words.size() * 8; }

    /**
     * Visit every set bit in ascending page order. A template so the
     * per-bit call inlines (auditors sweep the whole map; an indirect
     * call per set bit dominated the sweep).
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t word = words[w];
            while (word != 0) {
                auto bit =
                    static_cast<unsigned>(std::countr_zero(word));
                fn(static_cast<mem::Vpn>((baseWord + w) * 64 + bit));
                word &= word - 1;
            }
        }
    }

    /**
     * Invariant auditor: recounts the population from the raw words
     * and reports any disagreement with the cached count().
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    /** Stored word for absolute word index @p w (0 if outside). */
    std::uint64_t
    wordAt(std::uint64_t w) const
    {
        return w - baseWord < words.size() ? words[w - baseWord] : 0;
    }

    /** The stored word for @p word_index, growing the span. */
    std::uint64_t &ensure(std::uint64_t word_index);

    /** words[i] holds the bits of absolute word baseWord + i. */
    std::uint64_t baseWord = 0;
    std::vector<std::uint64_t> words;
    std::size_t numSet = 0;
};

} // namespace utlb::core

#endif // UTLB_CORE_BITVECTOR_HPP
