#include "common/cpu.h"

namespace clite {

bool
avx2Supported()
{
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
}

} // namespace clite
