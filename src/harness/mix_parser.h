/**
 * @file
 * Textual inputs of clite_cli and scripts: job-mix specifications and
 * the tool's numeric arguments (seed, noise sigma).
 *
 * Grammar (comma-separated job terms):
 *
 *   mix     := job ("," job)*
 *   job     := lc_job | bg_job
 *   lc_job  := NAME "@" LOAD        e.g. "memcached@40%" or
 *                                        "img-dnn@0.3"
 *   bg_job  := NAME                 e.g. "streamcluster"
 *
 * Names resolve against the workload catalog; loads accept both
 * percentages ("40%") and fractions ("0.4").
 */

#ifndef CLITE_HARNESS_MIX_PARSER_H
#define CLITE_HARNESS_MIX_PARSER_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/profile.h"

namespace clite {
namespace harness {

/**
 * Parse a mix specification into job specs.
 *
 * @param text e.g. "img-dnn@30%,memcached@40%,streamcluster".
 * @throws clite::Error on syntax errors, unknown workloads, loads
 *     outside (0, 100%], or an LC load on a BG workload (and vice
 *     versa: an LC workload without a load).
 */
std::vector<workloads::JobSpec> parseMix(const std::string& text);

/** Render a job list back into the mix grammar (round-trips parseMix). */
std::string formatMix(const std::vector<workloads::JobSpec>& jobs);

/**
 * Parse a seed: all of @p text is a decimal integer in [0, 2^64).
 * @throws clite::Error otherwise (a sign, spaces or trailing text too).
 */
uint64_t parseSeed(const std::string& text);

/**
 * Parse a noise sigma: all of @p text is a finite decimal >= 0.
 * @throws clite::Error otherwise (nan, inf, 1e400 or "0.1x" too).
 */
double parseNoiseSigma(const std::string& text);

} // namespace harness
} // namespace clite

#endif // CLITE_HARNESS_MIX_PARSER_H
