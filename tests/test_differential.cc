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
 *
 * The run-key suite checks the registry's engine run key
 * (engineRunKey): a config change a run cannot see leaves the run and
 * its key alone, and every change it can see moves the key.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/checker.hh"
#include "check/invariants.hh"
#include "sim/multicore.hh"
#include "sim/registry.hh"
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

// ------------------------------------------------------- run keys

constexpr PrefetcherKind kAllKinds[] = {
    PrefetcherKind::None,          PrefetcherKind::NextLine,
    PrefetcherKind::Tifs,          PrefetcherKind::Discontinuity,
    PrefetcherKind::Pif,           PrefetcherKind::Perfect,
};

/** The SystemConfig sections a field can belong to. */
enum class Section { System, NextLine, Tifs, Pif };

/** Whether a run of @p kind reads @p section. */
bool
reads(PrefetcherKind kind, Section section)
{
    switch (section) {
      case Section::System:   return true;
      case Section::NextLine: return kind == PrefetcherKind::NextLine;
      case Section::Tifs:     return kind == PrefetcherKind::Tifs;
      case Section::Pif:      return kind == PrefetcherKind::Pif;
    }
    return true;
}

/** A small db2 run of @p kind on @p engine under the default config. */
EngineRun
keyedRun(SimEngine engine, PrefetcherKind kind)
{
    EngineRun run;
    run.engine = engine;
    run.kind = kind;
    run.budget.warmup = 20'000;
    run.budget.measure = 40'000;
    return run;
}

/** @p run on db2's @p prog with stream digests on. */
EngineResult
digestRun(const EngineRun &run, const Program &prog)
{
    const ExecutorConfig exec = executorConfigFor(ServerWorkload::OltpDb2);
    ObserverConfig obs;
    obs.digests = true;
    if (run.engine == SimEngine::Trace) {
        TraceEngine engine(run.cfg, prog, exec,
                           makePrefetcher(run.kind, run.cfg,
                                          run.unbounded));
        engine.attachObservers(obs);
        return engine.run(run.budget.warmup, run.budget.measure);
    }
    CycleEngine engine(run.cfg, prog, exec, run.kind);
    engine.attachObservers(obs);
    return engine.run(run.budget.warmup, run.budget.measure);
}

/** Every field of two results of one engine is equal. */
void
expectIdentical(const EngineResult &a, const EngineResult &b,
                const std::string &label)
{
    std::vector<CheckFailure> failures;
    if (const auto *ta = std::get_if<TraceRunResult>(&a)) {
        EXPECT_NE(ta->retireDigest, 0u) << label;
        checkTraceIdentical(*ta, std::get<TraceRunResult>(b), label,
                            failures);
    } else {
        const auto &ca = std::get<CycleRunResult>(a);
        const auto &cb = std::get<CycleRunResult>(b);
        EXPECT_NE(ca.retireDigest, 0u) << label;
        checkCountersIdentical(ca, cb, label, true, failures);
        EXPECT_EQ(ca.cycles, cb.cycles) << label;
        EXPECT_EQ(ca.userInstrs, cb.userInstrs) << label;
        EXPECT_EQ(ca.uipc, cb.uipc) << label;
        EXPECT_EQ(ca.fetchStallCycles, cb.fetchStallCycles) << label;
        EXPECT_EQ(ca.branchPenaltyCycles, cb.branchPenaltyCycles) << label;
        EXPECT_EQ(ca.demandMisses, cb.demandMisses) << label;
        EXPECT_EQ(ca.latePrefetches, cb.latePrefetches) << label;
        EXPECT_EQ(ca.prefetchFills, cb.prefetchFills) << label;
        EXPECT_EQ(ca.l2Hits, cb.l2Hits) << label;
        EXPECT_EQ(ca.l2Misses, cb.l2Misses) << label;
    }
    for (const CheckFailure &f : failures)
        ADD_FAILURE() << label << ": " << f.detail;
}

TEST(RunKey, DroppedFieldsChangeNeitherTheRunNorTheKey)
{
    const Program prog = buildWorkloadProgram(ServerWorkload::OltpDb2);
    const WorkloadRef db2 = ServerWorkload::OltpDb2;
    // Each dropped section changed in every field at once.
    struct Drop
    {
        const char *name;
        Section section;
        void (*apply)(SystemConfig &);
    };
    const Drop drops[] = {
        {"threads", Section::System, [](SystemConfig &c) { c.threads = 3; }},
        {"nextLine", Section::NextLine,
         [](SystemConfig &c) { c.nextLine.degree = 7; }},
        {"tifs", Section::Tifs,
         [](SystemConfig &c) {
             c.tifs.historyEntries = 1'024;
             c.tifs.indexEntries = 512;
             c.tifs.indexAssoc = 2;
             c.tifs.numSabs = 2;
             c.tifs.sabWindowBlocks = 5;
         }},
        {"pif", Section::Pif,
         [](SystemConfig &c) {
             c.pif.blocksBefore = 1;
             c.pif.blocksAfter = 3;
             c.pif.temporalEntries = 2;
             c.pif.historyRegions = 2'048;
             c.pif.indexEntries = 1'024;
             c.pif.indexAssoc = 2;
             c.pif.numSabs = 2;
             c.pif.sabWindowRegions = 3;
             c.pif.separateTrapLevels = false;
         }},
    };
    for (const SimEngine engine : {SimEngine::Trace, SimEngine::Cycle}) {
        for (const PrefetcherKind kind : kAllKinds) {
            const EngineRun base = keyedRun(engine, kind);
            const EngineResult expected = digestRun(base, prog);
            for (const Drop &d : drops) {
                // threads is dropped for every kind.
                if (d.section != Section::System && reads(kind, d.section))
                    continue;
                EngineRun changed = base;
                d.apply(changed.cfg);
                const std::string label =
                    prefetcherName(kind) +
                    (engine == SimEngine::Trace ? "/trace/" : "/cycle/") +
                    d.name;
                EXPECT_EQ(engineRunKey(db2, changed),
                          engineRunKey(db2, base))
                    << label;
                expectIdentical(digestRun(changed, prog), expected, label);
            }
        }
    }
}

TEST(RunKey, EveryReadFieldChangesTheKey)
{
    struct Field
    {
        std::string name;
        Section section;
        std::function<void(SystemConfig &)> apply;
    };
    std::vector<Field> fields;
    // Every --set key but threads, set to a value no default has.
    for (const std::string &key : configOverrideKeys()) {
        if (key == "threads")
            continue;
        const Section section = key.rfind("pif.", 0) == 0 ? Section::Pif
            : key.rfind("tifs.", 0) == 0                  ? Section::Tifs
            : key.rfind("nextLine.", 0) == 0 ? Section::NextLine
                                             : Section::System;
        fields.push_back({key, section, [key](SystemConfig &c) {
                              ASSERT_TRUE(
                                  applyConfigOverride(c, key, "6") ||
                                  applyConfigOverride(c, key, "false"))
                                  << key;
                          }});
    }
    // The fields engines read that no --set key reaches.
    const auto add = [&fields](const char *name, Section section,
                               void (*apply)(SystemConfig &)) {
        fields.push_back({name, section, apply});
    };
    add("l1i.blockBytes", Section::System,
        [](SystemConfig &c) { c.l1i.blockBytes = 32; });
    add("l1i.hitLatency", Section::System,
        [](SystemConfig &c) { c.l1i.hitLatency = 3; });
    add("branch.gshareEntries", Section::System,
        [](SystemConfig &c) { c.branch.gshareEntries = 1'024; });
    add("branch.bimodalEntries", Section::System,
        [](SystemConfig &c) { c.branch.bimodalEntries = 1'024; });
    add("branch.chooserEntries", Section::System,
        [](SystemConfig &c) { c.branch.chooserEntries = 1'024; });
    add("branch.historyBits", Section::System,
        [](SystemConfig &c) { c.branch.historyBits = 10; });
    add("branch.btbEntries", Section::System,
        [](SystemConfig &c) { c.branch.btbEntries = 1'024; });
    add("branch.btbAssoc", Section::System,
        [](SystemConfig &c) { c.branch.btbAssoc = 2; });
    add("branch.rasEntries", Section::System,
        [](SystemConfig &c) { c.branch.rasEntries = 16; });
    add("core.fetchQueueEntries", Section::System,
        [](SystemConfig &c) { c.core.fetchQueueEntries = 12; });
    add("core.frontendDepth", Section::System,
        [](SystemConfig &c) { c.core.frontendDepth = 4; });
    add("core.minResolveCycles", Section::System,
        [](SystemConfig &c) { c.core.minResolveCycles = 5; });
    add("core.maxResolveCycles", Section::System,
        [](SystemConfig &c) { c.core.maxResolveCycles = 20; });
    add("core.dataStallFraction", Section::System,
        [](SystemConfig &c) { c.core.dataStallFraction = 0.03; });
    add("core.dataStallCycles", Section::System,
        [](SystemConfig &c) { c.core.dataStallCycles = 30; });
    add("memory.l2SizeBytes", Section::System,
        [](SystemConfig &c) { c.memory.l2SizeBytes = 4u << 20; });
    add("memory.l2Assoc", Section::System,
        [](SystemConfig &c) { c.memory.l2Assoc = 8; });
    add("memory.l2Mshrs", Section::System,
        [](SystemConfig &c) { c.memory.l2Mshrs = 32; });
    add("memory.interconnectLatency", Section::System,
        [](SystemConfig &c) { c.memory.interconnectLatency = 12; });
    add("pif.indexAssoc", Section::Pif,
        [](SystemConfig &c) { c.pif.indexAssoc = 2; });
    add("tifs.indexEntries", Section::Tifs,
        [](SystemConfig &c) { c.tifs.indexEntries = 512; });
    add("tifs.indexAssoc", Section::Tifs,
        [](SystemConfig &c) { c.tifs.indexAssoc = 2; });
    add("tifs.numSabs", Section::Tifs,
        [](SystemConfig &c) { c.tifs.numSabs = 2; });

    const WorkloadRef db2 = ServerWorkload::OltpDb2;
    for (const SimEngine engine : {SimEngine::Trace, SimEngine::Cycle}) {
        for (const PrefetcherKind kind : kAllKinds) {
            const EngineRun base = keyedRun(engine, kind);
            const std::string key = engineRunKey(db2, base);
            const std::string label =
                prefetcherName(kind) +
                (engine == SimEngine::Trace ? "/trace/" : "/cycle/");
            for (const Field &f : fields) {
                EngineRun changed = base;
                f.apply(changed.cfg);
                if (reads(kind, f.section)) {
                    EXPECT_NE(engineRunKey(db2, changed), key)
                        << label << f.name;
                } else {
                    EXPECT_EQ(engineRunKey(db2, changed), key)
                        << label << f.name;
                }
            }

            EngineRun other = base;
            other.engine = engine == SimEngine::Trace ? SimEngine::Cycle
                                                      : SimEngine::Trace;
            EXPECT_NE(engineRunKey(db2, other), key) << label << "engine";
            other = base;
            other.unbounded = true;
            EXPECT_NE(engineRunKey(db2, other), key) << label << "unbounded";
            other = base;
            ++other.budget.warmup;
            EXPECT_NE(engineRunKey(db2, other), key) << label << "warmup";
            other = base;
            ++other.budget.measure;
            EXPECT_NE(engineRunKey(db2, other), key) << label << "measure";
            EXPECT_NE(engineRunKey(ServerWorkload::WebApache, base), key)
                << label << "workload";
        }
    }
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
