#include "gp/fast_lml.h"

#include <cmath>
#include <cstdint>

#include "common/cpu.h"
#include "common/error.h"

// The generic 32-byte vectors never cross a function boundary that
// survives inlining inside this translation unit, so the "AVX vector
// return without AVX enabled" ABI note does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace clite {
namespace gp {

namespace detail {

#define CLITE_FAST_LML_NS base_impl
#define CLITE_FAST_LML_FMA 0
#include "gp/fast_lml_impl.h"
#undef CLITE_FAST_LML_NS
#undef CLITE_FAST_LML_FMA

#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define CLITE_FAST_LML_NS avx2_impl
#define CLITE_FAST_LML_FMA 1
#include "gp/fast_lml_impl.h"
#undef CLITE_FAST_LML_NS
#undef CLITE_FAST_LML_FMA
#pragma GCC pop_options

double
fastNegLogMarginalBase(const FastLmlProblem& problem, const double* p,
                       size_t np, FastLmlScratch& scratch)
{
    return base_impl::negLogMarginal(problem, p, np, scratch);
}

double
fastNegLogMarginalAvx2(const FastLmlProblem& problem, const double* p,
                       size_t np, FastLmlScratch& scratch)
{
    return avx2_impl::negLogMarginal(problem, p, np, scratch);
}

} // namespace detail

RadialForm
radialFormFor(const std::string& kernel_name)
{
    if (kernel_name == "matern52")
        return RadialForm::Matern52;
    if (kernel_name == "matern32")
        return RadialForm::Matern32;
    if (kernel_name == "rbf")
        return RadialForm::Rbf;
    CLITE_THROW("kernel '" << kernel_name << "' has no radial form");
}

double
fastNegLogMarginal(const FastLmlProblem& problem, const double* p,
                   size_t np, FastLmlScratch& scratch)
{
    return avx2Supported()
               ? detail::fastNegLogMarginalAvx2(problem, p, np, scratch)
               : detail::fastNegLogMarginalBase(problem, p, np, scratch);
}

} // namespace gp
} // namespace clite
