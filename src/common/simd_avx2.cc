/**
 * @file
 * AVX2 variants of the SIMD kernels. This is the only translation unit
 * compiled with -mavx2 (see the SIMD section of CMakeLists.txt);
 * everything else in the library stays baseline x86-64, and callers
 * reach these kernels only through the runtime dispatch in simd.cc.
 *
 * Bit-exactness notes: classification reduces to a 3-entry verdict
 * lookup per column (the three class margins are compared against the
 * bound once, up front), which vectorizes as a byte shuffle +
 * movemask; the blend widens floats to doubles and applies the same
 * multiply-then-add sequence as the scalar loop with explicit
 * intrinsics, so no FMA contraction can change results.
 */

#include "common/simd.hh"

#if defined(FCDRAM_SIMD_AVX2_ENABLED) && defined(__AVX2__)
#define FCDRAM_HAVE_AVX2_IMPL 1
#include <immintrin.h>
#else
#define FCDRAM_HAVE_AVX2_IMPL 0
#endif

#include <cmath>

#include "common/types.hh"

namespace fcdram::simd {

#if FCDRAM_HAVE_AVX2_IMPL

namespace {

/** Per-class verdicts: 0 = deterministic fail, 1 = success, 2 = draw. */
inline std::uint8_t
verdictOf(double margin, double bound)
{
    if (margin > bound)
        return 1;
    if (margin < -bound)
        return 0;
    return 2;
}

void
classifyAvx2(const std::uint8_t *classes, std::size_t n,
             const double *margins3, double bound,
             std::uint64_t *detWords, std::uint32_t *ambiguous,
             std::size_t *ambiguousCount)
{
    const std::uint8_t verdict[3] = {verdictOf(margins3[0], bound),
                                     verdictOf(margins3[1], bound),
                                     verdictOf(margins3[2], bound)};
    // pshufb lookup table: lane index = class (0..2), others unused.
    const __m256i lut = _mm256_broadcastsi128_si256(_mm_setr_epi8(
        static_cast<char>(verdict[0]), static_cast<char>(verdict[1]),
        static_cast<char>(verdict[2]), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0));
    const __m256i one = _mm256_set1_epi8(1);
    const __m256i two = _mm256_set1_epi8(2);

    std::size_t amb = 0;
    std::size_t i = 0;
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
        detWords[w] = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i cls = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(classes + i));
        const __m256i verdicts = _mm256_shuffle_epi8(lut, cls);
        const auto det = static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(verdicts, one)));
        const auto draw =
            static_cast<std::uint32_t>(_mm256_movemask_epi8(
                _mm256_cmpeq_epi8(verdicts, two)));
        detWords[i / 64] |= static_cast<std::uint64_t>(det)
                            << (i % 64);
        std::uint32_t pending = draw;
        while (pending != 0) {
            const unsigned b =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            ambiguous[amb++] = static_cast<std::uint32_t>(i + b);
        }
    }
    for (; i < n; ++i) {
        const std::uint8_t v = verdict[classes[i]];
        if (v == 1) {
            detWords[i / 64] |= std::uint64_t{1} << (i % 64);
        } else if (v == 2) {
            ambiguous[amb++] = static_cast<std::uint32_t>(i);
        }
    }
    *ambiguousCount = amb;
}

void
blendAvx2(float *values, std::size_t n, double progress, double band)
{
    const __m256d half = _mm256_set1_pd(kVddHalf);
    const __m256d vdd = _mm256_set1_pd(kVdd);
    const __m256d gnd = _mm256_set1_pd(kGnd);
    const __m256d bandv = _mm256_set1_pd(band);
    const __m256d prog = _mm256_set1_pd(progress);
    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));

    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 f = _mm_loadu_ps(values + i);
        const __m256d v = _mm256_cvtps_pd(f);
        const __m256d dist =
            _mm256_and_pd(_mm256_sub_pd(v, half), absMask);
        // Metastable lanes (|v - VDD/2| < band) keep their value.
        const __m256d meta = _mm256_cmp_pd(dist, bandv, _CMP_LT_OQ);
        const __m256d up = _mm256_cmp_pd(v, half, _CMP_GT_OQ);
        const __m256d rail = _mm256_blendv_pd(gnd, vdd, up);
        // Same shape as the scalar loop: v + progress * (rail - v),
        // multiply then add (no FMA).
        const __m256d moved = _mm256_add_pd(
            v, _mm256_mul_pd(prog, _mm256_sub_pd(rail, v)));
        const __m256d out = _mm256_blendv_pd(moved, v, meta);
        _mm_storeu_ps(values + i, _mm256_cvtpd_ps(out));
    }
    for (; i < n; ++i) {
        const double v = values[i];
        if (std::abs(v - kVddHalf) < band)
            continue;
        const double rail = v > kVddHalf ? kVdd : kGnd;
        values[i] = static_cast<float>(v + progress * (rail - v));
    }
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels kernels{classifyAvx2, blendAvx2, "avx2"};
    return kernels;
}

bool
avx2Compiled()
{
    return true;
}

#else // !FCDRAM_HAVE_AVX2_IMPL

const Kernels &
avx2Kernels()
{
    static const Kernels kernels{nullptr, nullptr, "unavailable"};
    return kernels;
}

bool
avx2Compiled()
{
    return false;
}

#endif // FCDRAM_HAVE_AVX2_IMPL

} // namespace fcdram::simd
