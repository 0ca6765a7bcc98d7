/**
 * @file
 * Deterministic Zipf(alpha) sampler.
 *
 * Extracted from the bench harnesses so workload generators (the
 * tenant fleet, the MT bench cells, tests) all share one seed
 * contract: the same (n, alpha, seed) triple always yields the same
 * rank sequence, bit-for-bit, across platforms. Draws come from the
 * project's Xorshift64* Rng (sim/random.hpp), so paired runs
 * (ablation pairs, repeated bench cells) replay identical workloads.
 *
 * Portability note: the inverse-CDF table is built from rank weights
 * 1/rank^alpha. For *integral* alpha (0, 1, 2, ...) the power is
 * computed by repeated multiplication — exact IEEE operations, so
 * the table and therefore the sampled stream are identical on every
 * conforming platform. Non-integral alphas fall back to std::pow,
 * whose last-ulp rounding is implementation-defined; streams are
 * still deterministic for a given libm but may differ across ones.
 * Tests that pin exact streams use integral alphas only.
 */

#ifndef UTLB_SIM_ZIPF_HPP
#define UTLB_SIM_ZIPF_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace utlb::sim {

/** Zipf(alpha) sampler over {0, .., n-1} by inverse CDF. */
class ZipfPicker
{
  public:
    /**
     * Build the sampler over @p n ranks. Rank r (0-based) is drawn
     * with probability proportional to 1/(r+1)^alpha; alpha = 0 is
     * the uniform distribution. @p n must be nonzero.
     */
    ZipfPicker(std::size_t n, double alpha, std::uint64_t seed);

    /** Draw the next rank in [0, n). */
    std::size_t next();

    /** Number of ranks the sampler covers. */
    std::size_t size() const { return cdf.size(); }

  private:
    std::vector<double> cdf;
    Rng rng;
};

} // namespace utlb::sim

#endif // UTLB_SIM_ZIPF_HPP
