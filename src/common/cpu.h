/**
 * @file
 * The one host-CPU feature probe. Code compiled for a wider ISA
 * (#pragma GCC target) is called only after this probe says the host
 * executes it; every such variant returns the bits of its baseline
 * twin, so the probe never changes a result.
 */

#ifndef CLITE_COMMON_CPU_H
#define CLITE_COMMON_CPU_H

namespace clite {

/** True when the host executes AVX2 and FMA. */
bool avx2Supported();

} // namespace clite

#endif // CLITE_COMMON_CPU_H
