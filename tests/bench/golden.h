/**
 * @file
 * The golden-file check shared by the tests/bench golden traces.
 *
 * A trace is compared byte for byte against tests/bench/golden/
 * <name>.txt. Regenerating after an INTENDED change:
 *
 *     CLITE_REGEN_GOLDEN=1 ./tests/test_bench
 *
 * rewrites the golden files in the source tree (the build knows the
 * path via the CLITE_GOLDEN_DIR compile definition); commit the diff
 * together with the change that caused it.
 */

#ifndef CLITE_TESTS_BENCH_GOLDEN_H
#define CLITE_TESTS_BENCH_GOLDEN_H

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef CLITE_GOLDEN_DIR
#error "CLITE_GOLDEN_DIR must point at tests/bench/golden"
#endif

namespace clite {
namespace golden {

/** Full double precision: pins a value to the last ULP. */
inline std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Compare @p trace to the golden file, or rewrite it under regen. */
inline void
checkGolden(const std::string& name, const std::string& trace)
{
    const std::string path =
        std::string(CLITE_GOLDEN_DIR) + "/" + name + ".txt";
    if (std::getenv("CLITE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << trace;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (run with CLITE_REGEN_GOLDEN=1 to create it)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), trace)
        << "trace diverged from " << path << ". If the numerical "
        << "change is intended, regenerate with CLITE_REGEN_GOLDEN=1 "
        << "and commit the new golden.";
}

} // namespace golden
} // namespace clite

#endif // CLITE_TESTS_BENCH_GOLDEN_H
