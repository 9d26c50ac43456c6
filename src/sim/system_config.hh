/**
 * @file
 * Prefetcher selection and construction for the engines, the part
 * of a SystemConfig each prefetcher kind reads, and the range check
 * every user-supplied SystemConfig passes first.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/config.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/** The prefetch configurations compared in Figure 10. */
enum class PrefetcherKind {
    None,           //!< no prefetching (Figure 10 baseline)
    NextLine,       //!< aggressive next-line prefetcher
    Tifs,           //!< temporal instruction fetch streaming
    Discontinuity,  //!< discontinuity prefetcher (extension)
    Pif,            //!< Proactive Instruction Fetch
    Perfect,        //!< perfect-latency L1-I (engine-interpreted)
};

/** Display name matching the paper's figure legends. */
std::string prefetcherName(PrefetcherKind kind);

/**
 * Construct a prefetcher of @p kind from @p cfg.
 *
 * Perfect returns a NullPrefetcher: the perfect-latency cache is a
 * property the cycle engine applies, not a prefetch algorithm.
 *
 * @param unbounded Remove storage limits (Figure 10 left's
 *        "no storage limitation" comparison) where supported.
 */
std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind,
                                           const SystemConfig &cfg,
                                           bool unbounded = false);

/**
 * @p cfg as a run of @p kind sees it: `threads` (a host knob) and the
 * prefetcher sections @p kind does not read reset to their defaults.
 * None, Perfect and Discontinuity read no section, Next-Line reads
 * only `nextLine`, TIFS only `tifs` and PIF only `pif`. Two configs
 * with equal effective configs simulate identically, which is what
 * lets the registry key a run on it (engineRunKey in registry.hh).
 */
SystemConfig effectiveConfig(PrefetcherKind kind, const SystemConfig &cfg);

/**
 * Range-check the SystemConfig fields a user can set: `--set` /
 * `--param` keys, sweep manifests and `pifetch check` scenarios.
 * Returns the first violation, naming its key. The upper caps sit
 * orders of magnitude above any paper configuration, so a hostile or
 * corrupted value fails with a message instead of dividing by zero,
 * indexing an empty table or exhausting memory.
 */
std::optional<std::string> validateSystemConfig(const SystemConfig &cfg);

} // namespace pifetch
