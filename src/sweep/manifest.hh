/**
 * @file
 * Canonical sweep manifests: one JSON document that pins a cartesian
 * parameter sweep — experiment, axes, base options and shard count —
 * precisely enough that any process (or machine) holding the manifest
 * enumerates the exact same grid points in the exact same order and
 * agrees on which shard owns each point.
 *
 * The manifest is the contract between the sweep scheduler and its
 * worker processes (runner.hh): the scheduler writes
 * `<dir>/manifest.json` once, every worker re-derives its point list
 * from it, and the merge step re-derives the full enumeration to
 * assemble the canonical results tree. Nothing about the partition is
 * passed on the command line except the shard ordinal, so a crashed
 * sweep resumes from the manifest alone.
 *
 * Point enumeration is the CLI's historical order: the first axis is
 * outermost, the last axis varies fastest. Shard assignment is round
 * robin (`point % shards`), which balances work when later grid points
 * are systematically heavier (e.g. a degree axis).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/results.hh"

namespace pifetch {

/** One sweep axis: a config-override key and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** One base workload reference, kept in CLI form so workers re-resolve
 *  it exactly as the parent would have. */
struct SweepWorkloadRef
{
    /** Preset / zoo-spec name, or a spec file path when isFile. */
    std::string value;
    bool isFile = false;
};

/**
 * A fully pinned sweep: everything `pifetch sweep` was told, in a
 * process-independent form.
 */
struct SweepManifest
{
    std::string experiment;
    std::vector<SweepAxis> axes;
    /** Shard count the grid is partitioned into (>= 1). */
    unsigned shards = 1;

    /** Base workload set (empty = the experiment's default set). */
    std::vector<SweepWorkloadRef> workloads;
    /** Base config overrides (--seed / --set), in CLI order. */
    std::vector<std::pair<std::string, std::string>> overrides;
    /** Budget overrides; absent fields keep the experiment default. */
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;
};

/** Total grid points (product of the axis sizes; 0 without axes). */
std::uint64_t sweepPointCount(const SweepManifest &m);

/**
 * Parameter assignment of grid point @p p: one (key, value) pair per
 * axis, first axis outermost. @p p must be < sweepPointCount().
 */
std::vector<std::pair<std::string, std::string>>
sweepPointParams(const SweepManifest &m, std::uint64_t p);

/** Owning shard of point @p p (round robin). */
unsigned sweepPointShard(std::uint64_t p, unsigned shards);

/** The points shard @p k owns, ascending. */
std::vector<std::uint64_t> sweepShardPoints(const SweepManifest &m,
                                            unsigned k);

/**
 * Check the manifest's configuration: every override and axis key is
 * known, every value parses and fits its field, no axis varies
 * `threads`, and validateSystemConfig holds for the base config and
 * for every grid point. Returns the first problem, naming the key.
 */
std::optional<std::string> validateSweepConfig(const SweepManifest &m);

/** Serialize @p m as the canonical manifest document. */
ResultValue manifestToResult(const SweepManifest &m);

/**
 * Parse a manifest document (schema pifetch-sweep-manifest-v1).
 * Returns nullopt and sets @p err on a malformed or inconsistent
 * document (unknown schema, empty axes, shards == 0, a config value
 * validateSweepConfig rejects, ...).
 */
std::optional<SweepManifest>
manifestFromResult(const ResultValue &doc, std::string *err = nullptr);

/** Canonical on-disk bytes of @p m (2-space JSON + newline). */
std::string manifestJson(const SweepManifest &m);

/** Write @p m to @p path in canonical form. */
bool saveManifest(const SweepManifest &m, const std::string &path,
                  std::string *err = nullptr);

/** Load and validate a manifest file. */
std::optional<SweepManifest> loadManifest(const std::string &path,
                                          std::string *err = nullptr);

} // namespace pifetch
