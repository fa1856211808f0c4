/**
 * @file
 * The benchmark's three workloads. Each builds its serving stack from
 * the repository's public API, drives it for the requested number of
 * seconds, checks every answer, and returns its metrics: end-to-end
 * metrics for an untraced run, per-layer metrics for a traced one.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for artifacts and trace files (must exist). */
    std::string workDir = ".";
};

struct RunResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Failed correctness checks, one line each; empty = correct. */
    std::vector<std::string> errors;
    /** End-to-end metrics (always measured). */
    std::map<std::string, Metric> endToEnd;
    /** Per-layer metrics (filled on traced runs). */
    std::map<std::string, Metric> perLayer;
};

/** @throws std::invalid_argument on an unknown workload name. */
RunResult runWorkload(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
