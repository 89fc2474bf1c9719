/**
 * @file
 * Tests for the mix-specification and numeric-argument parsers behind
 * clite_cli.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "harness/mix_parser.h"
#include "workloads/catalog.h"

namespace clite {
namespace harness {
namespace {

/**
 * Text-parser fuzz inputs from one valid input: every truncation, then
 * every substitution of one byte from the bytes numbers, separators and
 * comments are made of ('n' and 'i' start "nan" and "inf", and NUL
 * ends a C string early).
 */
std::vector<std::string>
textMutations(const std::string& valid)
{
    const std::string alphabet =
        std::string("0123456789.,-+e@%# \nni") + '\0';
    std::vector<std::string> out;
    for (size_t len = 0; len < valid.size(); ++len)
        out.push_back(valid.substr(0, len));
    for (size_t i = 0; i < valid.size(); ++i)
        for (char c : alphabet)
            if (c != valid[i]) {
                out.push_back(valid);
                out.back()[i] = c;
            }
    return out;
}

/** True when @p name is one of @p names. */
bool
contains(const std::vector<std::string>& names, const std::string& name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(MixParser, ParsesLcAndBgTerms)
{
    auto jobs = parseMix("img-dnn@30%,memcached@0.4,streamcluster");
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[0].profile.name, "img-dnn");
    EXPECT_TRUE(jobs[0].isLatencyCritical());
    EXPECT_NEAR(jobs[0].load_fraction, 0.3, 1e-12);
    EXPECT_NEAR(jobs[1].load_fraction, 0.4, 1e-12);
    EXPECT_EQ(jobs[2].profile.name, "streamcluster");
    EXPECT_FALSE(jobs[2].isLatencyCritical());
}

TEST(MixParser, ToleratesWhitespace)
{
    auto jobs = parseMix("  masstree @ 50% ,  canneal ");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].profile.name, "masstree");
    EXPECT_NEAR(jobs[0].load_fraction, 0.5, 1e-12);
    EXPECT_EQ(jobs[1].profile.name, "canneal");
}

TEST(MixParser, PercentAndFractionAgree)
{
    auto a = parseMix("xapian@75%");
    auto b = parseMix("xapian@0.75");
    EXPECT_DOUBLE_EQ(a[0].load_fraction, b[0].load_fraction);
}

TEST(MixParser, FullLoadBoundary)
{
    EXPECT_NEAR(parseMix("specjbb@100%")[0].load_fraction, 1.0, 1e-12);
    EXPECT_THROW(parseMix("specjbb@101%"), Error);
    EXPECT_THROW(parseMix("specjbb@0%"), Error);
}

TEST(MixParser, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseMix(""), Error);
    EXPECT_THROW(parseMix(","), Error);
    EXPECT_THROW(parseMix("unicorn@50%"), Error);
    EXPECT_THROW(parseMix("img-dnn"), Error);          // LC needs load
    EXPECT_THROW(parseMix("streamcluster@50%"), Error); // BG takes none
    EXPECT_THROW(parseMix("img-dnn@"), Error);
    EXPECT_THROW(parseMix("img-dnn@half"), Error);
    EXPECT_THROW(parseMix("img-dnn@30%x"), Error);
}

TEST(MixParser, FormatRoundTrips)
{
    std::string text = "img-dnn@30%,memcached@40%,streamcluster";
    auto jobs = parseMix(text);
    EXPECT_EQ(formatMix(jobs), text);
    auto again = parseMix(formatMix(jobs));
    ASSERT_EQ(again.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again[i].profile.name, jobs[i].profile.name);
        EXPECT_NEAR(again[i].load_fraction, jobs[i].load_fraction, 0.005);
    }
}

/**
 * Every fuzzed mix either throws clite::Error or parses into catalog
 * jobs: an LC job carries a load in (0, 1], a BG job is a BG workload.
 */
TEST(MixParser, FuzzedInputThrowsOrParsesCatalogJobs)
{
    const std::string valid = "img-dnn@30%,memcached@0.4,streamcluster";
    ASSERT_NO_THROW(parseMix(valid));
    for (const std::string& text : textMutations(valid)) {
        std::vector<workloads::JobSpec> jobs;
        try {
            jobs = parseMix(text);
        } catch (const Error&) {
            continue;
        }
        ASSERT_FALSE(jobs.empty()) << "input '" << text << "'";
        for (const workloads::JobSpec& job : jobs) {
            const std::string& name = job.profile.name;
            if (job.isLatencyCritical()) {
                EXPECT_TRUE(contains(workloads::lcWorkloadNames(), name))
                    << "input '" << text << "' job " << name;
                EXPECT_TRUE(job.load_fraction > 0.0 &&
                            job.load_fraction <= 1.0)
                    << "input '" << text << "' load " << job.load_fraction;
            } else {
                EXPECT_TRUE(contains(workloads::bgWorkloadNames(), name))
                    << "input '" << text << "' job " << name;
            }
        }
    }
}

TEST(CliNumbers, ParsesSeedsAndNoiseSigmas)
{
    EXPECT_EQ(parseSeed("0"), 0u);
    EXPECT_EQ(parseSeed("71"), 71u);
    EXPECT_EQ(parseSeed("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseNoiseSigma("0.03"), 0.03);
    EXPECT_EQ(parseNoiseSigma("3e-2"), 0.03);
    EXPECT_EQ(parseNoiseSigma("0"), 0.0);
}

TEST(CliNumbers, RejectsMalformedSeedsAndNoiseSigmas)
{
    for (const char* text : {"", "abc", "12abc", "-1", "+1", " 1", "1 ",
                             "1.5", "0x10", "99999999999999999999999",
                             "18446744073709551616"})
        EXPECT_THROW(parseSeed(text), Error) << "seed '" << text << "'";
    for (const char* text : {"", "abc", "0.1x", " 0.1", "+0.1", "-0.1",
                             "1e400", "-1e400", "nan", "inf", "-inf",
                             "infinity"})
        EXPECT_THROW(parseNoiseSigma(text), Error)
            << "noise '" << text << "'";
}

/**
 * Every fuzzed seed either throws clite::Error or is all digits and
 * parses to exactly the integer it spells.
 */
TEST(CliNumbers, FuzzedSeedThrowsOrParsesExactly)
{
    const std::string valid = "18446744073709551615";
    ASSERT_NO_THROW(parseSeed(valid));
    for (const std::string& text : textMutations(valid)) {
        uint64_t v = 0;
        try {
            v = parseSeed(text);
        } catch (const Error&) {
            continue;
        }
        const size_t first = text.find_first_not_of('0');
        const std::string digits =
            first == std::string::npos ? "0" : text.substr(first);
        EXPECT_EQ(std::to_string(v), digits) << "input '" << text << "'";
    }
}

/**
 * Every fuzzed noise sigma either throws clite::Error or is a finite,
 * non-negative number that strtod reads from the whole input.
 */
TEST(CliNumbers, FuzzedNoiseSigmaThrowsOrParsesFinite)
{
    const std::string valid = "3.25e-2";
    ASSERT_NO_THROW(parseNoiseSigma(valid));
    for (const std::string& text : textMutations(valid)) {
        double v = 0.0;
        try {
            v = parseNoiseSigma(text);
        } catch (const Error&) {
            continue;
        }
        EXPECT_TRUE(std::isfinite(v) && v >= 0.0)
            << "input '" << text << "' sigma " << v;
        char* end = nullptr;
        const double ref = std::strtod(text.c_str(), &end);
        EXPECT_EQ(end, text.c_str() + text.size())
            << "input '" << text << "'";
        EXPECT_EQ(std::memcmp(&v, &ref, sizeof v), 0)
            << "input '" << text << "' sigma " << v << " vs " << ref;
    }
}

} // namespace
} // namespace harness
} // namespace clite
