/**
 * @file
 * Multi-core runner tests.
 */

#include <gtest/gtest.h>

#include "sim/multicore.hh"

namespace pifetch {
namespace {

TEST(Multicore, PerCoreResultsDiffer)
{
    const auto res = runMulticoreTrace(ServerWorkload::OltpDb2,
                                       PrefetcherKind::None, 3,
                                       100'000, 200'000);
    ASSERT_EQ(res.perCore.size(), 3u);
    // Distinct seeds: cores see different interleavings.
    EXPECT_NE(res.perCore[0].misses, res.perCore[1].misses);
    for (const TraceRunResult &r : res.perCore)
        EXPECT_GT(r.accesses, 0u);
}

TEST(Multicore, AggregatesAreConsistent)
{
    const auto res = runMulticoreTrace(ServerWorkload::WebZeus,
                                       PrefetcherKind::None, 2,
                                       100'000, 200'000);
    std::uint64_t total = 0;
    for (const TraceRunResult &r : res.perCore)
        total += r.misses;
    EXPECT_EQ(res.totalMisses(), total);
    EXPECT_GT(res.meanMissRatio(), 0.0);
    EXPECT_LT(res.meanMissRatio(), 1.0);
}

TEST(Multicore, PifImprovesMeanAcrossCores)
{
    const auto base = runMulticoreTrace(ServerWorkload::OltpDb2,
                                        PrefetcherKind::None, 2,
                                        150'000, 300'000);
    const auto pif = runMulticoreTrace(ServerWorkload::OltpDb2,
                                       PrefetcherKind::Pif, 2,
                                       150'000, 300'000);
    EXPECT_LT(pif.totalMisses(), base.totalMisses() / 2);
    EXPECT_GT(pif.meanPifCoverage(), 0.7);
}

TEST(Multicore, DeterministicAcrossInvocations)
{
    const auto a = runMulticoreTrace(ServerWorkload::DssQry17,
                                     PrefetcherKind::Tifs, 2,
                                     100'000, 150'000);
    const auto b = runMulticoreTrace(ServerWorkload::DssQry17,
                                     PrefetcherKind::Tifs, 2,
                                     100'000, 150'000);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(a.perCore[c].misses, b.perCore[c].misses);
        EXPECT_EQ(a.perCore[c].accesses, b.perCore[c].accesses);
    }
}

/** Field-by-field equality of two functional results. */
void
expectSameTraceResults(const MulticoreTraceResult &a,
                       const MulticoreTraceResult &b)
{
    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        const TraceRunResult &x = a.perCore[c];
        const TraceRunResult &y = b.perCore[c];
        EXPECT_EQ(x.instrs, y.instrs);
        EXPECT_EQ(x.accesses, y.accesses);
        EXPECT_EQ(x.misses, y.misses);
        EXPECT_EQ(x.wrongPathFetches, y.wrongPathFetches);
        EXPECT_EQ(x.mispredicts, y.mispredicts);
        EXPECT_EQ(x.interrupts, y.interrupts);
        EXPECT_EQ(x.prefetchIssued, y.prefetchIssued);
        EXPECT_EQ(x.prefetchFills, y.prefetchFills);
        EXPECT_EQ(x.usefulPrefetches, y.usefulPrefetches);
        EXPECT_DOUBLE_EQ(x.pifCoverageTl0, y.pifCoverageTl0);
        EXPECT_DOUBLE_EQ(x.pifCoverageTl1, y.pifCoverageTl1);
        EXPECT_DOUBLE_EQ(x.pifCoverage, y.pifCoverage);
    }
}

TEST(Multicore, TraceRunnerBitIdenticalAcrossThreadCounts)
{
    SystemConfig serial_cfg;
    serial_cfg.threads = 1;
    SystemConfig parallel_cfg;
    parallel_cfg.threads = 4;

    const auto serial = runMulticoreTrace(ServerWorkload::OltpDb2,
                                          PrefetcherKind::Pif, 4,
                                          100'000, 200'000,
                                          serial_cfg);
    const auto parallel = runMulticoreTrace(ServerWorkload::OltpDb2,
                                            PrefetcherKind::Pif, 4,
                                            100'000, 200'000,
                                            parallel_cfg);
    expectSameTraceResults(serial, parallel);
}

TEST(Multicore, EmptyResultIsSafe)
{
    MulticoreTraceResult empty;
    EXPECT_DOUBLE_EQ(empty.meanMissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(empty.meanPifCoverage(), 0.0);
    EXPECT_EQ(empty.totalMisses(), 0u);
}

} // namespace
} // namespace pifetch
