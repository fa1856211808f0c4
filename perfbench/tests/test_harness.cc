/**
 * @file
 * Tests of the benchmark's measurement rules. Build and run with
 *
 *   cmake -S perfbench -B .bench_build/perfbench
 *   cmake --build .bench_build/perfbench --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "harness.h"

namespace perfbench
{
namespace
{

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(minSamplesFor(0.99), 1000u);
    EXPECT_EQ(minSamplesFor(0.5), 20u);
    EXPECT_FALSE(tailQuantile(iota(999), 0.99).has_value());
    const auto p = tailQuantile(iota(1000), 0.99);
    ASSERT_TRUE(p.has_value());
    // Nearest rank 990: exactly ten samples (991..1000) lie beyond.
    EXPECT_DOUBLE_EQ(*p, 990.0);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter)
{
    auto v = iota(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(*tailQuantile(v, 0.99), 1980.0);
    EXPECT_DOUBLE_EQ(median(v), 1000.5);
}

TEST(Percentile, QuartileSpreadMatchesPythonStatistics)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    EXPECT_DOUBLE_EQ(quartileSpread(iota(10)), (8.25 - 2.75) / 5.5);
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    EXPECT_DOUBLE_EQ(quartileSpread({4.0, 1.0, 2.0}), 3.0 / 2.0);
}

Rung
rung(double rate, double attain, std::size_t backlog = 0)
{
    Rung r;
    r.rate = rate;
    r.sent = 100;
    r.sentRate = rate;
    r.sloAttain = attain;
    r.backlogAtEnd = backlog;
    r.backlogAllowance = 5.0;
    return r;
}

TEST(Ladder, HighestCompliantRungWins)
{
    const std::vector<Rung> rungs = {rung(1000, 0.999), rung(2000, 0.995),
                                     rung(4000, 0.90)};
    ASSERT_TRUE(maxSloRung(rungs, 0.99).has_value());
    EXPECT_EQ(*maxSloRung(rungs, 0.99), 1u);
    EXPECT_EQ(*maxSloRung(rungs, 0.85), 2u);
    EXPECT_FALSE(maxSloRung(rungs, 0.9999).has_value());
}

TEST(Ladder, GrowingBacklogDisqualifiesARung)
{
    const std::vector<Rung> rungs = {rung(1000, 1.0),
                                     rung(2000, 1.0, /*backlog=*/6)};
    EXPECT_EQ(*maxSloRung(rungs, 0.99), 0u);
}

TEST(Ladder, RungOrderDoesNotMatter)
{
    const std::vector<Rung> rungs = {rung(4000, 0.999), rung(1000, 1.0)};
    EXPECT_EQ(*maxSloRung(rungs, 0.99), 0u);
}

TEST(Schedule, SameSeedSameSchedule)
{
    const auto a = poissonSchedule(2000.0, 2.0, 42);
    const auto b = poissonSchedule(2000.0, 2.0, 42);
    const auto c = poissonSchedule(2000.0, 2.0, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 2.0);
    // 4000 expected arrivals; Poisson sd ~63.
    EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 400.0);
}

TEST(Latency, MeasuredFromDueTimeNotSubmit)
{
    RequestRecord r;
    r.due = 1.000;
    r.submitStart = 1.004; // the generator ran 4 ms late
    r.submitEnd = 1.005;
    r.total = 0.002;
    r.done = 1.008;
    r.outcome = Outcome::kServed;
    EXPECT_DOUBLE_EQ(latencyOf(r), 0.008);
    EXPECT_NEAR(handoffOf(r), 0.002, 1e-12);
    // 8 ms from due misses a 5 ms limit even though only 4 ms passed
    // after the submit.
    EXPECT_FALSE(withinLimit(r, 0.005));
    EXPECT_TRUE(withinLimit(r, 0.0081));
    r.outcome = Outcome::kRejected;
    EXPECT_FALSE(withinLimit(r, 1.0));
}

TEST(Latency, SearchShareSplitsTheBatchEvenly)
{
    RequestRecord r;
    r.search = 0.002;
    r.batch = 4;
    EXPECT_DOUBLE_EQ(searchShareOf(r), 0.0005);
    // Unserved requests rode in no batch and cost no search time.
    r.batch = 0;
    EXPECT_DOUBLE_EQ(searchShareOf(r), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"request", 7, 1, 0, 0.0, 10.0},
        {"queue", 7, 2, 1, 1.0, 3.0},
        {"search", 7, 3, 1, 2.0, 5.0},
        {"late", 7, 4, 1, 9.0, 12.0}, // clipped to the parent
    };
    const auto st = selfTimes(spans);
    EXPECT_DOUBLE_EQ(st.at("request").seconds, 10.0 - 4.0 - 1.0);
    EXPECT_DOUBLE_EQ(st.at("queue").seconds, 2.0);
    EXPECT_EQ(st.at("request").count, 1u);
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer off(false), on(true);
    off.record({"x", 0, 1, 0, 0.0, 1.0});
    on.record({"x", 0, 1, 0, 0.0, 1.0});
    EXPECT_TRUE(off.spans().empty());
    EXPECT_EQ(on.spans().size(), 1u);
    std::ostringstream os;
    on.writeTraceEvents(os);
    EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Result, LineCarriesExactlyTheResultKeys)
{
    const std::string line =
        resultLine(true, 10, 0, {{"p50_ms", {1.25, "ms"}}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                    "\"metrics\": {\"p50_ms\": {\"value\": 1.25, "
                    "\"unit\": \"ms\"}}}");
}

} // namespace
} // namespace perfbench
