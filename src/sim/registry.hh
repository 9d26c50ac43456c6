/**
 * @file
 * The experiment registry: every figure/table of the paper's
 * evaluation as a named, uniformly-invocable entry.
 *
 * Each ExperimentSpec couples a name, a description, a default
 * workload set and instruction budget, the run's simulation points
 * and a pure reduction of their results into a structured ResultValue
 * document (see common/results.hh). The `pifetch` CLI, the sweep
 * service and the golden-snapshot regression suite all go through
 * this table, so a new scenario is a registry entry.
 *
 * One scheduler runs a spec's stages in order on one ThreadPool per
 * runExperiment() call, each point writing a fixed result slot, so
 * documents are bit-identical at any thread count. A stage whose
 * points share one workload builds its Program once, up front; in a
 * multi-workload stage each point builds its own (docs/building.md,
 * "Threading model").
 *
 * Most points are engine points: a declared EngineRun plus a fold of
 * its result. Points with equal run keys simulate identically, so the
 * scheduler runs each key once per RunMemo and folds the stored
 * result everywhere else.
 *
 * Result document convention:
 * {
 *   "experiment":  "<name>",
 *   "description": "<one line>",
 *   "meta":        { seed, warmup, measure, threads, git, config },
 *   "tables":      [ { "title", "columns": [...], "rows": [[...]] } ],
 *   "notes":       [ "paper shape: ..." ]
 * }
 *
 * Golden mode pins `meta` to {mode, seed, warmup, measure} only (no
 * git describe, no resolved thread count), because fixtures must be
 * byte-identical across checkouts and PIFETCH_THREADS settings.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/results.hh"
#include "sim/cycle_engine.hh"
#include "sim/system_config.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {

/** Default instruction budgets for the experiments. */
struct ExperimentBudget
{
    InstCount warmup = 2'000'000;
    InstCount measure = 8'000'000;
};

/** Options for one registry invocation. */
struct RunOptions
{
    /** Workloads to evaluate; empty means the spec's default set.
     *  Presets convert implicitly; spec-file workloads arrive as
     *  WorkloadRef wrappers (see workloadRefFromSpec). */
    std::vector<WorkloadRef> workloads;

    /**
     * Instruction budget override. Analysis-only studies (Fig. 3, 7,
     * 8-left, 9-left) interpret `measure` as their single-pass count
     * and ignore `warmup`.
     */
    std::optional<ExperimentBudget> budget;

    /** System configuration (seed, PIF geometry, threads knob...). */
    SystemConfig cfg;
};

/** The engine an engine point runs. */
enum class SimEngine {
    Trace,  //!< functional TraceEngine
    Cycle,  //!< timed CycleEngine
};

/** One engine run, declared by everything it reads but the workload. */
struct EngineRun
{
    SimEngine engine = SimEngine::Trace;
    PrefetcherKind kind = PrefetcherKind::None;
    /** No storage limits (Figure 10 left); trace engine only. */
    bool unbounded = false;
    SystemConfig cfg;
    ExperimentBudget budget;
};

/** What one engine run returns: a TraceRunResult or a CycleRunResult. */
using EngineResult = std::variant<TraceRunResult, CycleRunResult>;

/** Simulate @p run on workload @p w, whose Program is @p prog. */
EngineResult runEngine(const EngineRun &run, const WorkloadRef &w,
                       const Program &prog);

/**
 * The run key of @p run on @p w: the workload (a preset's key, or a
 * spec's canonical JSON), the engine, the prefetcher kind,
 * `unbounded`, the budget and effectiveConfig(kind, cfg). Runs with
 * equal keys return identical results, digests included.
 */
std::string engineRunKey(const WorkloadRef &w, const EngineRun &run);

/**
 * One independent simulation point and the workload it runs. An
 * engine point sets `engine` and `fold`: the scheduler simulates the
 * run (or reuses an equal-keyed one) and folds its result into the
 * point's small ResultValue (a table row, a few cells or a single
 * number); without a fold it only fills the memo and its result is
 * null. An analysis-only point sets `run` instead, a function of the
 * workload and its Program; it has no key and always runs.
 */
struct ExperimentPoint
{
    WorkloadRef workload;
    std::function<ResultValue(const WorkloadRef &, const Program &)> run;
    std::optional<EngineRun> engine;
    std::function<ResultValue(const EngineResult &)> fold;
};

/**
 * Engine results by run key, owned by whoever calls the scheduler:
 * runExperiment() uses a fresh memo per call, a sweep shard (or an
 * in-process sweep lane) one memo across its grid points, seeded with
 * the sweep's shared runs (sweep/runner.hh). The counts are
 * deterministic: they follow from the plan, not the schedule.
 */
struct RunMemo
{
    std::map<std::string, EngineResult> results;
    std::uint64_t executed = 0;  //!< points simulated or analysed
    std::uint64_t reused = 0;    //!< engine points folded from a stored run
};

/** Points that may run concurrently; a run's stages run in order. */
using ExperimentStage = std::vector<ExperimentPoint>;

/** One registered experiment. */
struct ExperimentSpec
{
    std::string name;         //!< registry key, e.g. "fig10-coverage"
    std::string description;  //!< one-line summary for `pifetch list`
    std::string paperShape;   //!< expected qualitative trend (a note)
    std::vector<WorkloadRef> defaultWorkloads;
    ExperimentBudget defaultBudget;

    /**
     * The run's points as ordered stages. @p opts arrives resolved:
     * its workloads and budget are filled in from the defaults.
     */
    std::function<std::vector<ExperimentStage>(const RunOptions &opts)>
        points;

    /**
     * Pure: the document body ("tables", optionally "workloads") from
     * the same resolved options and every point's result, in stage
     * then point order.
     */
    std::function<ResultValue(const RunOptions &opts,
                              const std::vector<ResultValue> &results)>
        reduce;

    /**
     * Whether the points consume RunOptions.cfg. Analysis-only
     * studies (Fig. 3, 7, 8-left, 9-left) take just a workload and an
     * instruction count; their meta omits seed/config so the JSON
     * artifact never claims settings that had no effect.
     */
    bool usesConfig = true;
};

/** The full registry, in the paper's presentation order. */
const std::vector<ExperimentSpec> &experimentRegistry();

/** Look up a spec by name (nullptr when absent). */
const ExperimentSpec *findExperiment(const std::string &name);

/**
 * The stages runExperiment(@p spec, @p opts) runs: spec.points of
 * @p opts with the spec's default workloads and budget filled in.
 */
std::vector<ExperimentStage> experimentStages(const ExperimentSpec &spec,
                                              const RunOptions &opts);

/**
 * The scheduler: run @p stages in order on one pool of
 * min(resolveThreads(@p threads), most runs in a stage) lanes, each
 * distinct engine run once per @p memo, and return every point's
 * result in stage-then-point order.
 */
std::vector<ResultValue> runStages(const std::vector<ExperimentStage> &stages,
                                   unsigned threads, RunMemo &memo);

/**
 * Run @p spec with @p opts and wrap the body in the full document
 * (experiment, description, meta, tables, notes).
 */
ResultValue runExperiment(const ExperimentSpec &spec,
                          const RunOptions &opts);

/**
 * runExperiment() against the caller's @p memo: engine points whose
 * key @p memo already holds are folded, not simulated, and new runs
 * are added to it.
 */
ResultValue runExperiment(const ExperimentSpec &spec,
                          const RunOptions &opts, RunMemo &memo);

/** Key system-configuration parameters as a result object. */
ResultValue configToResult(const SystemConfig &cfg);

/**
 * Apply a `key=value` configuration override ("pif.historyRegions",
 * "nextLine.degree", "seed", ...). Returns false, with @p err naming
 * the key, on an unknown key or a value that does not parse or does
 * not fit the field. configOverrideKeys() lists the supported keys.
 * Range checks are validateSystemConfig's job.
 */
bool applyConfigOverride(SystemConfig &cfg, const std::string &key,
                         const std::string &value,
                         std::string *err = nullptr);

/** The override keys applyConfigOverride understands. */
const std::vector<std::string> &configOverrideKeys();

/**
 * Strict non-negative integer parse (base 0: decimal/hex/octal).
 * Rejects negatives outright — strtoull would wrap them to huge
 * values, turning a typo like "-1" into 1.8e19 instructions. Shared
 * by the config overrides and the CLI's numeric options.
 */
bool parseU64Value(const std::string &s, std::uint64_t &out);

/** `git describe` of the build, or "unknown" outside a git checkout. */
std::string gitDescribe();

// ------------------------------------------------- golden snapshots

/** One entry of the golden-snapshot suite (tests/golden/<name>.json). */
struct GoldenEntry
{
    std::string experiment;  //!< registry key
    RunOptions options;      //!< pinned small-budget options
    /**
     * Fixture base name (tests/golden/<fixture>.json). Empty falls
     * back to the experiment name; entries sharing an experiment
     * (e.g. a zoo-spec variant) must set a distinct fixture.
     */
    std::string fixture;
};

/** The experiments locked by the golden regression suite. */
const std::vector<GoldenEntry> &goldenSuite();

/** Fixture base name of an entry (fixture, or the experiment name). */
std::string goldenFixtureName(const GoldenEntry &entry);

/**
 * Canonical fixture serialization of one golden entry: the document
 * with pinned metadata, 2-space-indented JSON, trailing newline.
 * @p threads overrides the entry's SystemConfig::threads (results
 * must be identical for any value; the suite checks 1 and 4).
 */
std::string goldenJson(const GoldenEntry &entry, unsigned threads = 0);

} // namespace pifetch
