/**
 * @file
 * Differential regression suite over the six server presets.
 *
 * The fuzz harness (`pifetch check`) exercises the cross-engine and
 * thread-invariance oracles on randomized scenarios; this suite pins
 * the same oracles on the fixed presets so they run in every plain
 * CTest invocation, with no fuzzing involved. Any drift between
 * TraceEngine and CycleEngine on retired-instruction streams, fetch
 * sequences or miss counts — or any thread-count dependence of the
 * multicore runners at 1 vs 4 workers — fails here first.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/checker.hh"
#include "check/invariants.hh"
#include "sim/multicore.hh"
#include "sim/workloads.hh"
#include "trace/workload_spec.hh"

namespace pifetch {
namespace {

constexpr InstCount kWarmup = 60'000;
constexpr InstCount kMeasure = 120'000;

/**
 * The event-store shape the windowed oracles use: a fine counter
 * stride, and no prefetch slices (their timing differs across engines,
 * which would misalign the slice streams row for row).
 */
EventStoreOptions
windowedOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.recordPrefetches = false;
    return opts;
}

/**
 * Drive one workload through both engines with attached event stores
 * and apply the windowed differential oracles.
 */
void
runWindowedOracles(const Program &prog, const ExecutorConfig &exec,
                   PrefetcherKind kind, const std::string &label)
{
    const SystemConfig cfg{};
    EventStore trace_events(windowedOptions());
    TraceEngine trace_engine(cfg, prog, exec,
                             makePrefetcher(kind, cfg));
    ObserverConfig trace_obs;
    trace_obs.events = &trace_events;
    trace_engine.attachObservers(trace_obs);
    trace_engine.run(kWarmup, kMeasure);

    EventStore cycle_events(windowedOptions());
    CycleEngine cycle_engine(cfg, prog, exec, kind);
    ObserverConfig cycle_obs;
    cycle_obs.events = &cycle_events;
    cycle_engine.attachObservers(cycle_obs);
    cycle_engine.run(kWarmup, kMeasure);

    // Recording must actually have happened — two empty stores would
    // compare equal and verify nothing.
    EXPECT_GT(trace_events.sliceCount(), 0u) << label;
    EXPECT_GT(trace_events.counterCount(), 0u) << label;

    std::vector<CheckFailure> failures;
    const bool instant = kind == PrefetcherKind::None;
    checkWindowedCounters(trace_events, cycle_events, instant,
                          failures);
    if (instant)
        checkRegionMissProfile(trace_events, cycle_events, failures);
    for (const CheckFailure &f : failures) {
        ADD_FAILURE() << label << "/" << prefetcherName(kind) << ": "
                      << f.invariant << ": " << f.detail;
    }
}

class PresetDifferential
    : public ::testing::TestWithParam<ServerWorkload>
{
};

TEST_P(PresetDifferential, EnginesAgreeOnStreamsAndCounters)
{
    const ServerWorkload w = GetParam();
    const SystemConfig cfg{};
    const Program prog = buildWorkloadProgram(w);

    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif}) {
        TraceEngine trace_engine(cfg, prog, executorConfigFor(w),
                                 makePrefetcher(kind, cfg));
        ObserverConfig obs;
        obs.digests = true;
        trace_engine.attachObservers(obs);
        const TraceRunResult trace =
            trace_engine.run(kWarmup, kMeasure);

        CycleEngine cycle_engine(cfg, prog, executorConfigFor(w), kind);
        cycle_engine.attachObservers(obs);
        const CycleRunResult cycle =
            cycle_engine.run(kWarmup, kMeasure);

        // Digest collection must actually have happened — an
        // accidental 0 == 0 comparison would verify nothing.
        EXPECT_NE(trace.retireDigest, 0u);
        EXPECT_NE(trace.accessDigest, 0u);

        std::vector<CheckFailure> failures;
        checkTraceSanity(trace, workloadKey(w),
                         cfg.l1i.sizeBytes / blockBytes, failures);
        checkCycleSanity(cycle, false, failures);
        checkCrossEngine(trace, cycle,
                         kind == PrefetcherKind::None, failures);
        for (const CheckFailure &f : failures) {
            ADD_FAILURE() << workloadKey(w) << "/"
                          << prefetcherName(kind) << ": "
                          << f.invariant << ": " << f.detail;
        }
    }
}

TEST_P(PresetDifferential, MulticoreTraceIsThreadCountInvariant)
{
    const ServerWorkload w = GetParam();
    SystemConfig serial;
    serial.threads = 1;
    SystemConfig pooled;
    pooled.threads = 4;

    const MulticoreTraceResult a = runMulticoreTrace(
        w, PrefetcherKind::Pif, 4, kWarmup / 2, kMeasure / 2, serial);
    const MulticoreTraceResult b = runMulticoreTrace(
        w, PrefetcherKind::Pif, 4, kWarmup / 2, kMeasure / 2, pooled);

    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    std::vector<CheckFailure> failures;
    for (std::size_t core = 0; core < a.perCore.size(); ++core)
        checkTraceIdentical(a.perCore[core], b.perCore[core],
                            "thread-invariance", failures);
    for (const CheckFailure &f : failures)
        ADD_FAILURE() << workloadKey(w) << ": " << f.detail;
}

TEST_P(PresetDifferential, WindowedOraclesAgreeAcrossEngines)
{
    const ServerWorkload w = GetParam();
    const Program prog = buildWorkloadProgram(w);
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif})
        runWindowedOracles(prog, executorConfigFor(w), kind,
                           workloadKey(w));
}

TEST(ZooDifferential, WindowedOraclesAgreeOnZooSpecs)
{
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    ASSERT_GE(zoo.size(), 2u);
    // The first two specs in key order; the fuzz harness sweeps the
    // rest.
    for (std::size_t i = 0; i < 2; ++i) {
        std::string err;
        auto spec = loadWorkloadSpecFile(zoo[i].path, &err);
        ASSERT_TRUE(spec.has_value()) << zoo[i].key << ": " << err;
        const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
        const Program prog = ref.buildProgram();
        const ExecutorConfig exec = ref.executorConfig();
        for (const PrefetcherKind kind :
             {PrefetcherKind::None, PrefetcherKind::Pif})
            runWindowedOracles(prog, exec, kind, zoo[i].key);
    }
}

TEST(WindowedFault, PlantedMiscountIsLocalizedToItsWindow)
{
    // The injected skew hits the cycle store's second accesses sample:
    // with the oracle's 1024-instruction stride that is instruction
    // window 2048, and the failure must name exactly that window (the
    // whole-run totals stay equal, so no other oracle may trip).
    Scenario sc = scenarioFromSeed(1);
    sc.warmup = 2'000;
    sc.measure = 8'000;
    const std::vector<CheckFailure> failures =
        runScenario(sc, FaultInjection::WindowMiscount);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].invariant, "windowed-counter-equality");
    EXPECT_NE(
        failures[0].detail.find("accesses diverges at instr 2048"),
        std::string::npos)
        << failures[0].detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, PresetDifferential,
    ::testing::ValuesIn(allServerWorkloads()),
    [](const ::testing::TestParamInfo<ServerWorkload> &info) {
        std::string n = workloadGroup(info.param) +
                        workloadName(info.param);
        n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
        return n;
    });

} // namespace
} // namespace pifetch
