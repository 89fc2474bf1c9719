/**
 * @file
 * -log(1 - u) for the DES's unit exponentials: fdlibm's log (e_log.c)
 * in the branch-free form musl carries (src/math/log.c, before musl
 * 1.1.20 replaced it). Included only by common/rng.cpp, which builds it
 * with FP contraction off.
 *
 * The body is written once over a lane type: D is double or a generic
 * vector of doubles and U the unsigned 64-bit integer of the same
 * shape, so lane k of a vector computes exactly the scalar expression
 * in IEEE +, -, * and /. Every form that instantiates it therefore
 * returns the same bits, whatever the vector width or ISA.
 *
 * Its input is always x = 1 - u for a uniform u = j·2^-53 in [0, 1):
 * x is a normal double in [2^-53, 1], so fdlibm's branches for zero,
 * negative, subnormal, infinite and NaN inputs are left out. At x = 1
 * the expression is +0, so u = 0 returns -0.0, as -std::log(1.0)
 * does. fdlibm's error analysis bounds the result within 1 ulp of
 * -log(x).
 */

/* origin: FreeBSD /usr/src/lib/msun/src/e_log.c */
/*
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunSoft, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */

#ifndef CLITE_COMMON_FDLIBM_LOG_H
#define CLITE_COMMON_FDLIBM_LOG_H

#include <cstdint>
#include <cstring>

namespace clite {
namespace detail {
namespace fdlibm {

inline constexpr double kLn2Hi = 6.93147180369123816490e-01; // 3fe62e42 fee00000
inline constexpr double kLn2Lo = 1.90821492927058770002e-10; // 3dea39ef 35793c76
inline constexpr double kLg1 = 6.666666666666735130e-01;     // 3FE55555 55555593
inline constexpr double kLg2 = 3.999999999940941908e-01;     // 3FD99999 9997FA04
inline constexpr double kLg3 = 2.857142874366239149e-01;     // 3FD24924 94229359
inline constexpr double kLg4 = 2.222219843214978396e-01;     // 3FCC71C5 1D8E78AF
inline constexpr double kLg5 = 1.818357216161805012e-01;     // 3FC74664 96CB03DE
inline constexpr double kLg6 = 1.531383769920937332e-01;     // 3FC39A09 D078C69F
inline constexpr double kLg7 = 1.479819860511658591e-01;     // 3FC2F112 DF3E5244

/**
 * The bits of @p from as a To of the same size. memcpy rather than
 * std::bit_cast: GCC 12's UBSan reports a null load inside
 * __builtin_bit_cast of a vector at -O0.
 */
template <typename To, typename From>
[[gnu::always_inline]] inline To
bitsAs(const From& from)
{
    static_assert(sizeof(To) == sizeof(From));
    To to;
    std::memcpy(&to, &from, sizeof to);
    return to;
}

/** High 32 bits of √2/2: mantissas from here on reduce to k + 1. */
inline constexpr uint64_t kSqrtHalfHigh = 0x3fe6a09e;

/**
 * -log(1 - u) lane-wise, for u in [0, 1).
 *
 * 1. Reduce x = 1 - u to 2^k · m with m in [√2/2, √2): adding
 *    0x3ff00000 - kSqrtHalfHigh to the high word carries into the
 *    exponent exactly where m passes √2/2.
 * 2. With f = m - 1 and s = f / (2 + f), log(m) = log(1 + s) -
 *    log(1 - s) = 2s + s·R(s²), where the Lg1..Lg7 minimax polynomial
 *    in s² approximates R within 2^-58.45 on [0, 0.1716].
 * 3. log(x) = s·(hfsq + R) + k·ln2_lo - hfsq + f + k·ln2_hi, summed
 *    left to right, with hfsq = f²/2 and ln2 split so that k·ln2_hi
 *    is exact.
 */
template <typename D, typename U>
[[gnu::always_inline]] inline D
negLogOneMinus(D u)
{
    const D x = 1.0 - u;
    const U bits = bitsAs<U>(x);
    U hx = (bits >> 32) + (0x3ff00000 - kSqrtHalfHigh);
    // k in [-53, 0], wrapped modulo 2^64.
    const U k = (hx >> 20) - 0x3ff;
    hx = (hx & 0x000fffff) + kSqrtHalfHigh;
    const D m = bitsAs<D>((hx << 32) | (bits & 0xffffffff));

    const D f = m - 1.0;
    const D hfsq = 0.5 * f * f;
    const D s = f / (2.0 + f);
    const D z = s * s;
    const D w = z * z;
    const D t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const D t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const D r = t2 + t1;
    // (double)k without an int64 -> double conversion, which AVX2 has
    // no instruction for: k lands in the low mantissa bits of 1.5·2^52
    // and subtracting 1.5·2^52 leaves it, exactly.
    const D dk = bitsAs<D>(k + 0x4338000000000000) - 0x1.8p52;
    return -(s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi);
}

} // namespace fdlibm
} // namespace detail
} // namespace clite

#endif // CLITE_COMMON_FDLIBM_LOG_H
