/**
 * @file
 * Multi-core measurement runner.
 *
 * The paper simulates a 16-core CMP and reports results "averaged
 * across the 16 simulated cores", with each core owning completely
 * independent dedicated predictor hardware (Section 4). This runner
 * reproduces that methodology: it instantiates N per-core engines,
 * each executing its own instance of the workload (distinct seeds, so
 * cores run different transaction interleavings of the same program
 * mix), and aggregates per-core results. Inter-core interaction is
 * folded into the shared-L2 latency model (modelling substitution #3,
 * docs/paper_map.md); only the shared-storage study couples cores,
 * through one PifHistory.
 */

#pragma once

#include <memory>
#include <vector>

#include "pif/pif_prefetcher.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {

/** Aggregated multi-core functional results. */
struct MulticoreTraceResult
{
    /** Per-core results, in core order. */
    std::vector<TraceRunResult> perCore;

    /** Mean correct-path miss ratio across cores. */
    double meanMissRatio() const;

    /** Mean PIF coverage across cores (0 unless PIF was attached). */
    double meanPifCoverage() const;

    /** Total correct-path misses across cores. */
    std::uint64_t totalMisses() const;
};

/**
 * Run the functional engine on @p cores instances of a workload.
 *
 * @param kind Prefetcher attached to every core (independent copies).
 */
MulticoreTraceResult
runMulticoreTrace(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg = SystemConfig{});

/**
 * Step @p engines round-robin in chunks of @p chunk instructions until
 * each has run @p total more, emulating concurrent cores that share
 * predictor state (a PifHistory). Serial by design: the order in which
 * cores record and replay is part of the result.
 */
void interleave(std::vector<std::unique_ptr<TraceEngine>> &engines,
                InstCount total, InstCount chunk = 10'000);

/** Result of the shared-vs-private PIF storage study (Section 4's
 * deferred optimization). */
struct SharedPifStudyResult
{
    /** Mean miss ratio with dedicated per-core storage. */
    double privateMissRatio = 0.0;
    /** Mean miss ratio with one shared pool of equal aggregate size. */
    double sharedMissRatio = 0.0;
    /** Mean coverage, private configuration. */
    double privateCoverage = 0.0;
    /** Mean coverage, shared configuration. */
    double sharedCoverage = 0.0;
};

/**
 * Compare dedicated per-core history (capacity/core = total/cores)
 * against one shared history of the same aggregate capacity, with all
 * cores executing @p prog, the workload's Program (distinct
 * interleavings).
 */
SharedPifStudyResult
runSharedPifStudy(const WorkloadRef &w, const Program &prog,
                  unsigned cores, std::uint64_t total_history_regions,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg = SystemConfig{});

} // namespace pifetch
