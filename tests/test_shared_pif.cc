/**
 * @file
 * Shared-storage PIF tests: several cores' PifPrefetchers over one
 * PifHistory (Section 4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "check/invariants.hh"
#include "pif/pif_prefetcher.hh"
#include "sim/multicore.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {
namespace {

PifConfig
smallPif()
{
    PifConfig cfg;
    cfg.historyRegions = 1024;
    cfg.indexEntries = 256;
    return cfg;
}

void
retireBlocks(Prefetcher &pf, const std::vector<Addr> &blocks)
{
    for (Addr b : blocks) {
        RetiredInstr r;
        r.pc = blockBase(b);
        pf.onRetire(r, true);
    }
}

FetchInfo
fetchOf(Addr block, bool hit = false, bool was_prefetched = false)
{
    FetchInfo f;
    f.block = block;
    f.pc = blockBase(block);
    f.hit = hit;
    f.wasPrefetched = was_prefetched;
    f.correctPath = true;
    return f;
}

TEST(SharedPif, CrossCoreStreamReplay)
{
    auto history = std::make_shared<PifHistory>(smallPif());
    PifPrefetcher core_a(smallPif(), history);
    PifPrefetcher core_b(smallPif(), history);

    // Core A records a stream...
    retireBlocks(core_a, {1000, 1001, 2000, 3000});
    retireBlocks(core_a, {9000});

    // ...core B, which has never executed it, replays it on the
    // trigger recurrence. This is exactly what dedicated per-core
    // storage cannot do.
    core_b.onFetchAccess(fetchOf(1000));
    std::vector<Addr> out;
    core_b.drainRequests(out, 64);
    EXPECT_NE(std::find(out.begin(), out.end(), 2000u), out.end());
    EXPECT_NE(std::find(out.begin(), out.end(), 3000u), out.end());
    EXPECT_EQ(core_b.sabAllocations(), 1u);
    EXPECT_EQ(core_a.sabAllocations(), 0u);
}

TEST(SharedPif, StorageAggregatesAcrossCores)
{
    auto history = std::make_shared<PifHistory>(smallPif());
    PifPrefetcher a(smallPif(), history);
    PifPrefetcher b(smallPif(), history);
    retireBlocks(a, {100, 5000});
    const std::uint64_t from_a = history->regionsRecorded();
    retireBlocks(b, {900, 7000});
    EXPECT_GE(from_a, 1u);
    EXPECT_GT(history->regionsRecorded(), from_a);
    EXPECT_EQ(a.regionsRecorded(), history->regionsRecorded());
    EXPECT_EQ(b.regionsRecorded(), history->regionsRecorded());
}

TEST(SharedPif, CoverageAccounting)
{
    // Coverage stays per core even though the history is shared.
    auto history = std::make_shared<PifHistory>(smallPif());
    PifPrefetcher pf(smallPif(), history);
    PifPrefetcher other(smallPif(), history);
    pf.onFetchAccess(fetchOf(42));
    pf.onFetchAccess(fetchOf(43, true, true));
    EXPECT_DOUBLE_EQ(pf.coverage(), 0.5);
    EXPECT_EQ(other.totalAccesses(0), 0u);
}

TEST(SharedPif, ResetKeepsSharedStorage)
{
    auto history = std::make_shared<PifHistory>(smallPif());
    PifPrefetcher a(smallPif(), history);
    retireBlocks(a, {100, 5000});
    const std::uint64_t recorded = history->regionsRecorded();
    ASSERT_GT(recorded, 0u);
    a.reset();
    EXPECT_EQ(history->regionsRecorded(), recorded);
    EXPECT_EQ(a.totalAccesses(0), 0u);
}

TEST(SharedPif, OneCoreMatchesOwnedHistory)
{
    // One core over a PifHistory of its own is the dedicated design:
    // the whole run must not differ in any field.
    const WorkloadRef w = ServerWorkload::OltpDb2;
    const Program prog = w.buildProgram();
    const SystemConfig cfg;
    TraceEngine owned(cfg, prog, w.executorConfig(),
                      std::make_unique<PifPrefetcher>(cfg.pif));
    TraceEngine shared(
        cfg, prog, w.executorConfig(),
        std::make_unique<PifPrefetcher>(
            cfg.pif, std::make_shared<PifHistory>(cfg.pif)));
    const TraceRunResult a = owned.run(100'000, 200'000);
    const TraceRunResult b = shared.run(100'000, 200'000);
    EXPECT_GT(a.pifCoverage, 0.0);
    std::vector<CheckFailure> failures;
    checkTraceIdentical(a, b, "owned-vs-shared-history", failures);
    for (const CheckFailure &f : failures)
        ADD_FAILURE() << f.invariant << ": " << f.detail;
}

TEST(SharedPifDeath, HistoryChainCountMustMatchConfig)
{
    PifConfig joint = smallPif();
    joint.separateTrapLevels = false;
    PifConfig split = smallPif();
    split.separateTrapLevels = true;
    auto history = std::make_shared<PifHistory>(joint);
    EXPECT_DEATH({ PifPrefetcher pf(split, history); }, "chain count");
}

TEST(SharedPifStudy, SharedBeatsEqualAggregatePrivate)
{
    // With 4 cores running the same binary, one shared 8K-region pool
    // must outperform four private 2K pools: streams recorded by any
    // core serve all of them.
    const WorkloadRef w = ServerWorkload::OltpDb2;
    const SharedPifStudyResult r = runSharedPifStudy(
        w, w.buildProgram(), 4, 8 * 1024, 200'000, 300'000);
    EXPECT_GT(r.privateMissRatio, 0.0);
    EXPECT_GT(r.sharedCoverage, r.privateCoverage - 0.02);
    EXPECT_LT(r.sharedMissRatio, r.privateMissRatio * 1.05);
}

} // namespace
} // namespace pifetch
