#include "sim/simd.hpp"

#include <cstdlib>
#include <cstring>

#if defined(UTLB_SIMD_ENABLED) \
    && (defined(__x86_64__) || defined(__i386__))
#define UTLB_SIMD_X86 1
#include <emmintrin.h>
#include <immintrin.h>
#else
#define UTLB_SIMD_X86 0
#endif

namespace utlb::simd {

namespace {

#if UTLB_SIMD_X86
/** Drop mask bits past way n-1 (overread lanes, n < 32 always). Only
 *  the vector kernels overread, so a scalar-only build has no use for
 *  it. */
unsigned
clampMask(unsigned mask, unsigned n)
{
    return n < 32 ? mask & ((1u << n) - 1u) : mask;
}
#endif

Path
hostBest()
{
#if UTLB_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return Path::Avx2;
    if (__builtin_cpu_supports("sse2"))
        return Path::Sse2;
#endif
    return Path::Scalar;
}

/** Startup resolution: host capability, clamped by UTLB_SIMD_FORCE. */
Path
resolve()
{
    Path best = hostBest();
    const char *e = std::getenv("UTLB_SIMD_FORCE");
    if (!e)
        return best;
    Path want = best;
    if (std::strcmp(e, "scalar") == 0)
        want = Path::Scalar;
    else if (std::strcmp(e, "sse2") == 0)
        want = Path::Sse2;
    else if (std::strcmp(e, "avx2") == 0)
        want = Path::Avx2;
    return want < best ? want : best;
}

} // namespace

namespace detail {

std::atomic<Path> g_path{resolve()};

#if UTLB_SIMD_X86

unsigned
matchSse2(const std::uint64_t *tags, unsigned n, std::uint64_t key)
{
    // SSE2 has no 64-bit compare: compare 32-bit lanes, then AND each
    // lane with its partner so a 64-bit lane is all-ones iff both
    // halves matched; movemask_pd picks each 64-bit lane's sign bit.
    __m128i k =
        _mm_set1_epi64x(static_cast<long long>(key));
    unsigned mask = 0;
    for (unsigned w = 0; w < n; w += 2) {
        __m128i t = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + w));
        __m128i eq32 = _mm_cmpeq_epi32(t, k);
        __m128i swap =
            _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1));
        __m128i eq64 = _mm_and_si128(eq32, swap);
        mask |= static_cast<unsigned>(
                    _mm_movemask_pd(_mm_castsi128_pd(eq64)))
            << w;
    }
    return clampMask(mask, n);
}

__attribute__((target("avx2"))) unsigned
matchAvx2(const std::uint64_t *tags, unsigned n, std::uint64_t key)
{
    __m256i k =
        _mm256_set1_epi64x(static_cast<long long>(key));
    unsigned mask = 0;
    for (unsigned w = 0; w < n; w += 4) {
        __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        __m256i eq = _mm256_cmpeq_epi64(t, k);
        mask |= static_cast<unsigned>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
            << w;
    }
    return clampMask(mask, n);
}

#else // !UTLB_SIMD_X86

// Scalar-only build (UTLB_SIMD=OFF or non-x86): the dispatch enum
// still exists, but these paths are never selected (bestSupported()
// returns Scalar). Defined so the link never depends on the gate.
unsigned
matchSse2(const std::uint64_t *tags, unsigned n, std::uint64_t key)
{
    return matchScalar(tags, n, key);
}

unsigned
matchAvx2(const std::uint64_t *tags, unsigned n, std::uint64_t key)
{
    return matchScalar(tags, n, key);
}

#endif // UTLB_SIMD_X86

} // namespace detail

const char *
pathName(Path p)
{
    switch (p) {
    case Path::Avx2:
        return "avx2";
    case Path::Sse2:
        return "sse2";
    case Path::Scalar:
        break;
    }
    return "scalar";
}

Path
bestSupported()
{
    return hostBest();
}

Path
activePath()
{
    return detail::g_path.load(std::memory_order_relaxed);
}

const char *
activePathName()
{
    return pathName(activePath());
}

Path
forcePath(Path p)
{
    Path best = hostBest();
    Path sel = p < best ? p : best;
    detail::g_path.store(sel, std::memory_order_relaxed);
    return sel;
}

} // namespace utlb::simd
