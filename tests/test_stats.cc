#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.h"
#include "stats/percentile.h"
#include "stats/report.h"
#include "stats/slowdown.h"
#include "workload/workloads.h"

namespace homa {
namespace {

TEST(Samples, EmptyIsSafe) {
    Samples s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.percentile(0.5), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Samples, BasicStatistics) {
    Samples s;
    for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, PercentileNearestRank) {
    Samples s;
    for (int i = 1; i <= 100; i++) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Samples, SingleSampleAnswersEveryQuery) {
    Samples s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    for (double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.5) << "p=" << p;
    }
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.min(), 7.5);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(Samples, DuplicateHeavyInput) {
    // 990 copies of 1.0 and 10 of 2.0: nearest-rank percentiles must sit
    // on the duplicated value through p99 and step up only past it.
    Samples s;
    for (int i = 0; i < 990; i++) s.add(1.0);
    for (int i = 0; i < 10; i++) s.add(2.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.995), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 2.0);
    EXPECT_DOUBLE_EQ(s.mean(), (990.0 + 20.0) / 1000.0);
}

TEST(Samples, PercentileClampsOutOfRangeP) {
    Samples s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.5), 2.0);
}

TEST(Samples, InterleavedAddAndQuery) {
    Samples s;
    s.add(10);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(20);
    s.add(30);
    EXPECT_DOUBLE_EQ(s.median(), 20.0);  // re-sorts after new samples
}

TEST(StreamingQuantile, EmptyIsZero) {
    StreamingQuantile q(0.9);
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.value(), 0.0);
}

// The hedge delay reads a StreamingQuantile where it used to read
// Samples::percentile, and the serving goldens pin the delays; so the two
// must agree exactly, after every sample, on tie-heavy streams.
TEST(StreamingQuantile, MatchesSamplesPercentileAfterEveryAdd) {
    const double ps[] = {0.0, 0.01, 0.5, 0.95, 0.99, 1.0};
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Samples reference;
        std::vector<StreamingQuantile> streams;
        for (double p : ps) streams.emplace_back(p);
        double run = 0;
        for (int i = 0; i < 20000; i++) {
            // Seed 1: eight distinct values. Seed 2: latencies rounded to
            // whole microseconds. Seed 3: runs of one repeated value.
            double v;
            if (seed == 1) {
                v = static_cast<double>(rng.below(8));
            } else if (seed == 2) {
                v = std::round(rng.exponential(20.0));
            } else {
                if (rng.chance(0.05)) run = rng.uniform(0, 100);
                v = rng.chance(0.8) ? run : std::round(rng.uniform(0, 100));
            }
            reference.add(v);
            for (StreamingQuantile& q : streams) q.add(v);
            for (size_t j = 0; j < streams.size(); j++) {
                ASSERT_EQ(streams[j].value(), reference.percentile(ps[j]))
                    << "seed " << seed << ", p " << ps[j] << ", after "
                    << i + 1 << " samples";
                ASSERT_EQ(streams[j].count(), reference.count());
            }
        }
    }
}

TEST(SlowdownTracker, RecordsIntoCorrectDecileBuckets) {
    const auto& dist = workload(WorkloadId::W3);  // deciles start 36, 77...
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    t.record(10, microseconds(2));    // bucket 0 (<= 36)
    t.record(36, microseconds(3));    // bucket 0 boundary
    t.record(100, microseconds(4));   // bucket 2 (<= 110)
    t.record(1u << 30, microseconds(9));  // clamps to last bucket
    auto rows = t.rows();
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_EQ(rows[2].count, 1u);
    EXPECT_EQ(rows[9].count, 1u);
    EXPECT_DOUBLE_EQ(rows[2].median, 4.0);
}

TEST(SlowdownTracker, SlowdownIsElapsedOverOracle) {
    const auto& dist = workload(WorkloadId::W1);
    SlowdownTracker t(dist, [](uint32_t size) {
        return microseconds(1) * (1 + size / 1000);
    });
    t.record(2000, microseconds(9));  // oracle = 3us -> slowdown 3
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.5), 3.0);
}

TEST(SlowdownTracker, TailDelaySourcesUsesShortMessagesNearP99) {
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    // 99 fast short messages with distinct delays and zero decomposition,
    // plus one slow one with a big decomposition. The p98 threshold selects
    // the slowest 3 (98, 99, and 1000 us); only the slow one contributes.
    for (int i = 1; i <= 99; i++) {
        t.record(30, microseconds(i), 0, 0);
    }
    t.record(30, microseconds(1000), microseconds(30), microseconds(15));
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, microseconds(30) / 3);
    EXPECT_EQ(lag, microseconds(15) / 3);
}

TEST(SlowdownTracker, IgnoresLargeMessagesForTailDecomposition) {
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    t.record(5'000'000, microseconds(1000), microseconds(500), microseconds(500));
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, 0);
    EXPECT_EQ(lag, 0);
}

TEST(SlowdownTracker, EmptyTrackerIsSafe) {
    const auto& dist = workload(WorkloadId::W2);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.overallPercentile(0.99), 0.0);
    auto rows = t.rows();
    ASSERT_EQ(rows.size(), 10u);
    for (const auto& row : rows) {
        EXPECT_EQ(row.count, 0u);
        EXPECT_EQ(row.median, 0.0);
        EXPECT_EQ(row.p99, 0.0);
    }
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, 0);
    EXPECT_EQ(lag, 0);
}

TEST(SlowdownTracker, DuplicateHeavySamplesKeepExactPercentiles) {
    const auto& dist = workload(WorkloadId::W1);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    for (int i = 0; i < 500; i++) t.record(100, microseconds(1));  // slowdown 1
    t.record(100, microseconds(50));  // one straggler
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(t.overallPercentile(1.0), 50.0);
}

TEST(Table, FormatsAlignedColumns) {
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    const std::string out = t.format();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Every line has the same structure: header, rule, 2 rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumberFormatting) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.0, 0), "3");
    EXPECT_EQ(Table::bytes(512), "512");
    EXPECT_EQ(Table::bytes(16129), "16.1K");
    EXPECT_EQ(Table::bytes(28840000), "28.8M");
}

TEST(Banner, ContainsTitle) {
    EXPECT_NE(banner("Hello").find("Hello"), std::string::npos);
}

}  // namespace
}  // namespace homa
