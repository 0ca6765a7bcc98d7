/**
 * @file
 * Host-side cost model, calibrated to the paper's measurements.
 *
 * Provenance of every constant in the default (PentiumIINT) profile:
 *
 *  - userCheck (0.5 us): §6.2 "the user check at 0.5 us" — the
 *    per-lookup user-level cost (bitmap / lookup-tree consultation)
 *    used in the lookup-cost equations.
 *  - checkCostMin / checkCostMax: Table 1 "check" rows — the bitmap
 *    scan cost as a function of the number of pages checked; the
 *    minimum (first bit found immediately) is a constant 0.2 us, the
 *    maximum depends on the run length scanned.
 *  - pinCost / unpinCost: Table 1 "pin"/"unpin" rows — the ioctl()
 *    cost of pinning/unpinning a batch of pages on the paper's
 *    300 MHz Pentium-II NT host (27 us / 25 us for one page).
 *  - interruptCost (10 us): §6.2 "10 us for invoking the system
 *    interrupt handler by the network interface".
 *  - kernelPin / kernelUnpin (16 us): §6.2 says that for the
 *    interrupt-based approach "the pinning and unpinning costs must
 *    be adjusted to factor out context switches" but does not print
 *    the adjusted value. We back-solve it from Table 6: with
 *    ni_check = 0.8, intr = 10, and Table 4's rates, the published
 *    Intr lookup costs (4.9 us Barnes @1K, 21.7 us FFT @1K) are
 *    reproduced by kernel pin = unpin = 16 us. See EXPERIMENTS.md
 *    for the fit.
 *  - cycleCounterRead: §5 — reading the Pentium cycle counter costs
 *    39 cycles (~0.13 us at 300 MHz); charged by the host-side
 *    microbenchmarks that model the paper's measurement harness.
 *
 * Other profiles:
 *
 *  - PentiumIILinux: §6.2 "On Linux, the pinning and unpinning costs
 *    are similar to those on NT" — same curves, same constants; it
 *    exists as a named profile to document that measurement.
 *  - ModernX86: early-2020s server numbers for the what-if ablation
 *    (`bench_ablation_modern`): mlock/get_user_pages fast path
 *    ~0.6 us/page with strong batching, MSI-X interrupt delivery
 *    ~2 us, sub-0.1 us user-level checks. These are era-typical
 *    figures, not measurements of a specific machine; they exist to
 *    show how the UTLB-vs-interrupt trade moved over 25 years.
 */

#ifndef UTLB_CORE_COST_MODEL_HPP
#define UTLB_CORE_COST_MODEL_HPP

#include <cstddef>

#include "sim/calibration.hpp"
#include "sim/types.hpp"

namespace utlb::core {

/** Which host machine the cost model describes. */
enum class HostProfile {
    PentiumIINT,     //!< the paper's testbed (default)
    PentiumIILinux,  //!< §6.2: "similar" costs; same numbers
    ModernX86,       //!< early-2020s server, for the what-if study
};

/** Host processor cost model. */
class HostCosts
{
  public:
    explicit HostCosts(HostProfile profile = HostProfile::PentiumIINT)
        : checkMinCurve(makeCheckMin(profile)),
          checkMaxCurve(makeCheckMax(profile)),
          pinCurve(makePin(profile)),
          unpinCurve(makeUnpin(profile)),
          userCheckTicks(profile == HostProfile::ModernX86
                             ? sim::usToTicks(0.05)
                             : sim::usToTicks(0.5)),
          interruptTicks(profile == HostProfile::ModernX86
                             ? sim::usToTicks(2.0)
                             : sim::usToTicks(10.0)),
          kernelPinTicks(profile == HostProfile::ModernX86
                             ? sim::usToTicks(0.6)
                             : sim::usToTicks(16.0)),
          kernelUnpinTicks(profile == HostProfile::ModernX86
                               ? sim::usToTicks(0.5)
                               : sim::usToTicks(16.0)),
          cycleReadTicks(profile == HostProfile::ModernX86
                             ? sim::nsToTicks(10.0)
                             : sim::nsToTicks(39.0 * 1000.0 / 300.0))
    {
    }

    /** Per-lookup user-level check cost (§6.2). */
    sim::Tick userCheck() const { return userCheckTicks; }

    /** Best-case bitmap check over @p npages pages (Table 1 min). */
    sim::Tick
    checkCostMin(std::size_t npages) const
    {
        return checkMinCurve.ticksAt(npages);
    }

    /** Worst-case bitmap check over @p npages pages (Table 1 max). */
    sim::Tick
    checkCostMax(std::size_t npages) const
    {
        return checkMaxCurve.ticksAt(npages);
    }

    /** ioctl() cost to pin @p npages pages (Table 1). */
    sim::Tick
    pinCost(std::size_t npages) const
    {
        return npages == 0 ? 0 : pinCurve.ticksAt(npages);
    }

    /** ioctl() cost to unpin @p npages pages (Table 1). */
    sim::Tick
    unpinCost(std::size_t npages) const
    {
        return npages == 0 ? 0 : unpinCurve.ticksAt(npages);
    }

    /** NIC-to-host interrupt delivery cost. */
    sim::Tick interruptCost() const { return interruptTicks; }

    /**
     * In-kernel pin of one page during interrupt handling, with
     * syscall/context-switch overhead factored out (§6.2, derived
     * from Table 6 — see file comment).
     */
    sim::Tick kernelPinCost() const { return kernelPinTicks; }

    /** In-kernel unpin of one page during interrupt handling. */
    sim::Tick kernelUnpinCost() const { return kernelUnpinTicks; }

    /** Reading the CPU cycle counter. */
    sim::Tick cycleCounterRead() const { return cycleReadTicks; }

    /**
     * @name A profile's Table 1 curves
     * The calibrated curves behind checkCostMin/checkCostMax/pinCost/
     * unpinCost, built afresh on each call.
     * @{
     */
    static sim::CalCurve
    makeCheckMin(HostProfile profile)
    {
        if (profile == HostProfile::ModernX86)
            return sim::CalCurve{{1, 0.02}, {32, 0.02}};
        return sim::CalCurve{{1, 0.2}, {2, 0.2}, {4, 0.2}, {8, 0.2},
                             {16, 0.2}, {32, 0.2}};
    }

    static sim::CalCurve
    makeCheckMax(HostProfile profile)
    {
        if (profile == HostProfile::ModernX86)
            return sim::CalCurve{{1, 0.04}, {32, 0.07}};
        return sim::CalCurve{{1, 0.4}, {2, 0.6}, {4, 0.6}, {8, 0.6},
                             {16, 0.6}, {32, 0.7}};
    }

    static sim::CalCurve
    makePin(HostProfile profile)
    {
        if (profile == HostProfile::ModernX86) {
            // mlock/gup fast path: ~1.5 us syscall + ~0.25 us/page.
            return sim::CalCurve{{1, 1.8}, {2, 2.0}, {4, 2.5},
                                 {8, 3.5}, {16, 5.5}, {32, 9.5}};
        }
        return sim::CalCurve{{1, 27.0}, {2, 30.0}, {4, 36.0},
                             {8, 47.0}, {16, 70.0}, {32, 115.0}};
    }

    static sim::CalCurve
    makeUnpin(HostProfile profile)
    {
        if (profile == HostProfile::ModernX86) {
            return sim::CalCurve{{1, 1.6}, {2, 1.8}, {4, 2.2},
                                 {8, 3.0}, {16, 4.6}, {32, 7.8}};
        }
        return sim::CalCurve{{1, 25.0}, {2, 30.0}, {4, 36.0},
                             {8, 50.0}, {16, 80.0}, {32, 139.0}};
    }
    /** @} */

  private:
    sim::CalCurve checkMinCurve;
    sim::CalCurve checkMaxCurve;
    sim::CalCurve pinCurve;
    sim::CalCurve unpinCurve;
    sim::Tick userCheckTicks;
    sim::Tick interruptTicks;
    sim::Tick kernelPinTicks;
    sim::Tick kernelUnpinTicks;
    sim::Tick cycleReadTicks;
};

} // namespace utlb::core

#endif // UTLB_CORE_COST_MODEL_HPP
