/**
 * @file
 * Sharded, resumable sweep execution over a manifest (manifest.hh).
 *
 * Layout of a sweep directory:
 *
 *   <dir>/manifest.json            the pinned sweep (canonical JSON)
 *   <dir>/shards/shard-<K>/
 *       point-<P>.json             one experiment document per point
 *       journal.jsonl              one line per completed point:
 *                                  {"point":P,"digest":"<fnv64 hex>"}
 *   <dir>/merged.json              the canonical sweep document
 *
 * The journal is the crash contract: a point file is fully written
 * and closed *before* its journal line is appended and flushed, so
 * after a crash (or SIGKILL) every journaled point provably has its
 * bytes on disk. Resume re-validates each journal line — parse, shard
 * ownership, and the digest of the point file's actual bytes — and
 * re-runs anything that does not check out, so a torn journal line or
 * a corrupted point file is re-run rather than trusted.
 *
 * Every point runs with threads pinned to 1 and the shared document
 * assembly below, which is what makes a merged sharded sweep
 * byte-identical to `pifetch sweep` run in one process — the goldens
 * and tests/test_sweep_shard.cc lock this.
 *
 * A sweep plans its engine runs before it simulates any (planSweep).
 * Each pending grid point has one owner: shard sweepPointShard(p,
 * shards), or lane p mod lanes of an in-process sweep. A run key that
 * two or more owners need is a shared run; the scheduler simulates
 * the shared runs once, on its own pool, and every owner starts from
 * a RunMemo (registry.hh) seeded with them. An owner runs its points
 * in order against that memo, so each distinct engine run of the
 * sweep is simulated once: a PIF sweep of Figure 10 simulates the
 * None, Next-Line and TIFS baselines once in all, and PIF once per
 * point. Shard workers are forked, not exec'd, after the scheduler's
 * pool is joined, so they inherit the memo with no file format. A
 * resumed sweep plans only the points whose journal entries do not
 * check out. A standalone worker (`pifetch sweep --shard K`) has no
 * scheduler and simulates all of its own runs.
 *
 * Self-test hook (mirroring `pifetch check --inject-fault`): setting
 * PIFETCH_SWEEP_KILL_AFTER="<shard>:<n>" makes runSweepShard() for
 * that shard raise SIGKILL immediately after journaling its n-th
 * completed point, simulating a mid-sweep crash for the resume tests
 * and the CI sweep-resume smoke job.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/registry.hh"
#include "sweep/manifest.hh"

namespace pifetch {

/** `<dir>/manifest.json`. */
std::string sweepManifestPath(const std::string &dir);

/** `<dir>/shards/shard-<k>`. */
std::string sweepShardDir(const std::string &dir, unsigned k);

/** `<dir>/shards/shard-<owner of p>/point-<p>.json`. */
std::string sweepPointPath(const std::string &dir,
                           const SweepManifest &m, std::uint64_t p);

/** `<dir>/shards/shard-<k>/journal.jsonl`. */
std::string sweepJournalPath(const std::string &dir, unsigned k);

/** `<dir>/merged.json`. */
std::string sweepMergedPath(const std::string &dir);

/**
 * Create @p dir (and ancestors) and write the canonical
 * `<dir>/manifest.json`. The scheduler calls this once before
 * launching workers; a resume validates the command line against the
 * manifest on disk instead.
 */
bool initSweepDir(const std::string &dir, const SweepManifest &m,
                  std::string *err = nullptr);

/**
 * Resolve the manifest's base options (workloads, overrides, budget)
 * against the experiment's defaults, exactly as the CLI would.
 * Returns nullopt and sets @p err when a workload or override no
 * longer resolves.
 */
std::optional<RunOptions> sweepBaseOptions(const ExperimentSpec &spec,
                                           const SweepManifest &m,
                                           std::string *err = nullptr);

/**
 * Run grid point @p p: base options plus the point's axis assignment,
 * threads pinned to 1 so the result is identical no matter which
 * process or pool lane executes it.
 */
ResultValue runSweepPoint(const ExperimentSpec &spec,
                          const RunOptions &base, const SweepManifest &m,
                          std::uint64_t p);

/** runSweepPoint() reusing and extending the engine runs in @p memo. */
ResultValue runSweepPoint(const ExperimentSpec &spec,
                          const RunOptions &base, const SweepManifest &m,
                          std::uint64_t p, RunMemo &memo);

/**
 * The engine runs of a sweep's pending points, planned by owner:
 * @p owners lists each owner's grid points, in the order it runs
 * them.
 */
struct SweepPlan
{
    /** One memo-filling engine point per shared run (a key two or
     *  more owners need), in run-key order. */
    ExperimentStage shared;
    /** Per owner, the runs it simulates or analyses itself once its
     *  memo holds the shared runs. */
    std::vector<std::uint64_t> ownerRuns;
};

/** Plan @p owners' points of sweep @p m (base options @p base). */
SweepPlan planSweep(const ExperimentSpec &spec, const RunOptions &base,
                    const SweepManifest &m,
                    const std::vector<std::vector<std::uint64_t>> &owners);

/**
 * The whole sweep in this process: every grid point on
 * min(resolveThreads(@p threads), points) lanes, point p on lane
 * p mod lanes and each lane with its own RunMemo seeded with the
 * lanes' shared runs, assembled by assembleSweepDoc(). Identical to a
 * merged sharded sweep at any thread count.
 */
ResultValue runSweepInProcess(const ExperimentSpec &spec,
                              const RunOptions &base,
                              const SweepManifest &m, unsigned threads);

/**
 * Assemble the canonical sweep document from per-point documents
 * (@p docs indexed by point ordinal). Both the in-process sweep and
 * the sharded merge go through this one function, so their output
 * cannot drift apart.
 */
ResultValue assembleSweepDoc(const SweepManifest &m,
                             std::vector<ResultValue> docs);

/**
 * Points of shard @p k whose journal entries are valid: the line
 * parses, the point belongs to the shard, and the point file's bytes
 * digest to the journaled value. Invalid or duplicate lines are
 * ignored (their points re-run).
 */
std::vector<std::uint64_t>
journaledCompletePoints(const std::string &dir, const SweepManifest &m,
                        unsigned k);

/**
 * Per shard, the points it still has to run: all of them, or with
 * @p resume those that are not journaled complete.
 */
std::vector<std::vector<std::uint64_t>>
pendingShardPoints(const std::string &dir, const SweepManifest &m,
                   bool resume);

/**
 * Run every point shard @p k owns, writing point files and the
 * completion journal under `<dir>/shards/shard-<k>`. With @p resume,
 * journaled-complete points are skipped; without it the shard starts
 * from a fresh journal. @return false on failure (@p err set).
 */
bool runSweepShard(const std::string &dir, const SweepManifest &m,
                   unsigned k, bool resume, std::string *err = nullptr);

/** runSweepShard() reusing and extending the engine runs in @p memo. */
bool runSweepShard(const std::string &dir, const SweepManifest &m,
                   unsigned k, bool resume, RunMemo &memo,
                   std::string *err = nullptr);

/**
 * Assemble the merged document from a sweep directory whose shards
 * have all completed. Fails (with the missing point named) when any
 * point file is absent or unparsable — the caller should re-run with
 * resume.
 */
std::optional<ResultValue>
mergeShardedSweep(const std::string &dir, const SweepManifest &m,
                  std::string *err = nullptr);

/**
 * The scheduler: plan the pending points of every shard, simulate the
 * shared runs once (one runStages stage on @p threads), then fork one
 * worker per shard, at most min(resolveThreads(@p threads), shards)
 * at once. A worker runs
 * runSweepShard() (with @p resume) against its inherited copy of the
 * shared memo and exits with its status. @return false when any shard
 * exits nonzero or dies to a signal; @p err then names the failed
 * shards.
 */
bool runShardedSweep(const std::string &dir, const SweepManifest &m,
                     unsigned threads, bool resume,
                     std::string *err = nullptr);

} // namespace pifetch
