/**
 * @file
 * The set-probe kernel name the bench documents report.
 *
 * The Shared UTLB-Cache compares a set's packed tag words one way at
 * a time, as the paper's firmware does (docs/performance.md, "Why the
 * set probe is scalar"), so there is one kernel and its name is
 * "scalar". bench::JsonReporter and the repository benchmark still
 * publish it as host_info.simd.
 */

#ifndef UTLB_SIM_SIMD_HPP
#define UTLB_SIM_SIMD_HPP

namespace utlb::simd {

/** The set probe's kernel, for bench/JSON reporting: "scalar". */
inline const char *
activePathName()
{
    return "scalar";
}

} // namespace utlb::simd

#endif // UTLB_SIM_SIMD_HPP
