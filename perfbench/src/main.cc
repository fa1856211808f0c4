/**
 * @file
 * perfbench entry point:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--commit ID]
 *
 * Prints the host fingerprint, the workload's human-readable report,
 * and as its last line one JSON object with correct/attempted/failed/
 * metrics (end-to-end metrics untraced, per-layer metrics traced).
 * Exits 1 when a correctness check fails, 2 on a usage error.
 */

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"
#include "vecsearch/fastscan.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

int
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--commit ID]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    std::string commit = "unknown";
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                return usage("missing value for " + arg);
            const std::string val = argv[++i];
            if (arg == "--workload") {
                opts.workload = val;
                have_workload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(val);
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = val == "1";
            } else if (arg == "--work-dir") {
                opts.workDir = val;
            } else if (arg == "--commit") {
                commit = val;
            } else {
                return usage("unknown argument " + arg);
            }
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (!have_workload)
        return usage("--workload is required");
    // Shorter runs leave phases too small to support their p99.
    if (!(opts.seconds >= 10.0 && opts.seconds <= 120.0))
        return usage("--seconds must be in [10, 120]");

    const Fingerprint fp =
        probeHost(vlr::vs::fastScanHasSimd() ? "avx2" : "scalar",
                  PERFBENCH_BUILD_TYPE, commit, opts.seed);
    std::printf("fingerprint: %s\n", toJson(fp).c_str());
    std::printf("workload: %s, seconds %.1f, trace %d\n",
                opts.workload.c_str(), opts.seconds, opts.trace ? 1 : 0);
    std::fflush(stdout);

    RunResult r;
    try {
        r = runWorkload(opts);
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }

    const auto &metrics = opts.trace ? r.perLayer : r.endToEnd;
    for (const auto &[name, m] : metrics)
        std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &e : r.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    const bool correct = r.errors.empty();
    std::printf("%s\n",
                resultLine(correct, r.attempted, r.failed, metrics).c_str());
    return correct ? 0 : 1;
}
