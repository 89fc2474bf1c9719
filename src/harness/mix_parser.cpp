#include "harness/mix_parser.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "workloads/catalog.h"

namespace clite {
namespace harness {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string& s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** The whole of @p text as a decimal T; @p what names it in errors. */
template <typename T>
T
parseNumber(const std::string& text, const char* what)
{
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    CLITE_CHECK(ec != std::errc::result_out_of_range,
                what << " out of range: '" << text << "'");
    CLITE_CHECK(ec == std::errc() && ptr == end,
                "malformed " << what << ": '" << text << "'");
    return v;
}

/** Parse "40%" or "0.4" into a load fraction. */
double
parseLoad(const std::string& text)
{
    std::string t = trim(text);
    CLITE_CHECK(!t.empty(), "empty load in mix term");
    bool percent = t.back() == '%';
    if (percent)
        t.pop_back();
    double v = parseNumber<double>(t, "load value");
    if (percent)
        v /= 100.0;
    CLITE_CHECK(v > 0.0 && v <= 1.0,
                "load must be in (0, 100%], got '" << text << "'");
    return v;
}

} // namespace

std::vector<workloads::JobSpec>
parseMix(const std::string& text)
{
    std::vector<workloads::JobSpec> jobs;
    std::stringstream ss(text);
    std::string term;
    while (std::getline(ss, term, ',')) {
        term = trim(term);
        CLITE_CHECK(!term.empty(), "empty job term in mix: '" << text
                                       << "'");
        size_t at = term.find('@');
        if (at == std::string::npos) {
            // Background job.
            workloads::WorkloadProfile p =
                workloads::workloadByName(term);
            CLITE_CHECK(!p.isLatencyCritical(),
                        "latency-critical workload '"
                            << term << "' needs a load, e.g. '" << term
                            << "@50%'");
            jobs.push_back(workloads::bgJob(term));
        } else {
            std::string name = trim(term.substr(0, at));
            workloads::WorkloadProfile p =
                workloads::workloadByName(name);
            CLITE_CHECK(p.isLatencyCritical(),
                        "background workload '"
                            << name << "' does not take a load");
            jobs.push_back(
                workloads::lcJob(name, parseLoad(term.substr(at + 1))));
        }
    }
    CLITE_CHECK(!jobs.empty(), "mix specification is empty");
    return jobs;
}

std::string
formatMix(const std::vector<workloads::JobSpec>& jobs)
{
    std::ostringstream oss;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            oss << ",";
        oss << jobs[i].profile.name;
        if (jobs[i].isLatencyCritical())
            oss << "@" << std::lround(jobs[i].load_fraction * 100.0)
                << "%";
    }
    return oss.str();
}

uint64_t
parseSeed(const std::string& text)
{
    return parseNumber<uint64_t>(text, "seed");
}

double
parseNoiseSigma(const std::string& text)
{
    const double v = parseNumber<double>(text, "noise sigma");
    CLITE_CHECK(std::isfinite(v) && v >= 0.0,
                "noise sigma must be finite and >= 0, got '" << text
                                                             << "'");
    return v;
}

} // namespace harness
} // namespace clite
