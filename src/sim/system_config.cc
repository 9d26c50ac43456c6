/**
 * @file
 * Prefetcher factory, the config a prefetcher kind reads, and
 * SystemConfig validation.
 */

#include "sim/system_config.hh"

#include <limits>

#include "pif/pif_prefetcher.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/tifs.hh"

namespace pifetch {

std::string
prefetcherName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:          return "None";
      case PrefetcherKind::NextLine:      return "Next-Line";
      case PrefetcherKind::Tifs:          return "TIFS";
      case PrefetcherKind::Discontinuity: return "Discontinuity";
      case PrefetcherKind::Pif:           return "PIF";
      case PrefetcherKind::Perfect:       return "Perfect";
    }
    panic("unknown prefetcher kind");
}

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, const SystemConfig &cfg,
               bool unbounded)
{
    switch (kind) {
      case PrefetcherKind::None:
      case PrefetcherKind::Perfect:
        return std::make_unique<NullPrefetcher>();
      case PrefetcherKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(cfg.nextLine);
      case PrefetcherKind::Tifs:
        return std::make_unique<TifsPrefetcher>(cfg.tifs, unbounded);
      case PrefetcherKind::Discontinuity:
        return std::make_unique<DiscontinuityPrefetcher>(
            DiscontinuityConfig{});
      case PrefetcherKind::Pif:
        return std::make_unique<PifPrefetcher>(cfg.pif, unbounded);
    }
    panic("unknown prefetcher kind");
}

SystemConfig
effectiveConfig(PrefetcherKind kind, const SystemConfig &cfg)
{
    const SystemConfig defaults;
    SystemConfig out = cfg;
    out.threads = defaults.threads;
    if (kind != PrefetcherKind::NextLine)
        out.nextLine = defaults.nextLine;
    if (kind != PrefetcherKind::Tifs)
        out.tifs = defaults.tifs;
    if (kind != PrefetcherKind::Pif)
        out.pif = defaults.pif;
    return out;
}

std::optional<std::string>
validateSystemConfig(const SystemConfig &cfg)
{
    if (cfg.l1i.blockBytes != blockBytes)
        return std::string("l1i.blockBytes must equal the global "
                           "block size");
    constexpr std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    struct Bound
    {
        const char *key;
        std::uint64_t value, min, max;
    };
    const PifConfig &pif = cfg.pif;
    const TifsConfig &tifs = cfg.tifs;
    const Bound bounds[] = {
        {"l1i.assoc", cfg.l1i.assoc, 1, 64},
        {"l1i.sizeBytes", cfg.l1i.sizeBytes, 1, 64ull << 20},
        {"l1i.mshrs", cfg.l1i.mshrs, 1, 4'096},
        {"core.robEntries", cfg.core.robEntries, 1, any},
        {"core.dispatchWidth", cfg.core.dispatchWidth, 1, any},
        {"core.retireWidth", cfg.core.retireWidth, 1, any},
        {"pif.blocksBefore", pif.blocksBefore, 0, 64},
        {"pif.blocksAfter", pif.blocksAfter, 1, 64},
        {"pif.historyRegions", pif.historyRegions, 64, 1u << 22},
        {"pif.indexAssoc", pif.indexAssoc, 1, any},
        {"pif.indexEntries", pif.indexEntries, pif.indexAssoc, 1u << 20},
        {"pif.numSabs", pif.numSabs, 1, 256},
        {"pif.sabWindowRegions", pif.sabWindowRegions, 1, 1'024},
        {"pif.temporalEntries", pif.temporalEntries, 1, 1'024},
        {"tifs.historyEntries", tifs.historyEntries, 1, 1u << 22},
        {"tifs.numSabs", tifs.numSabs, 1, 256},
        {"tifs.sabWindowBlocks", tifs.sabWindowBlocks, 1, 4'096},
        {"nextLine.degree", cfg.nextLine.degree, 1, 256},
        {"memory.l2HitLatency", cfg.memory.l2HitLatency, 0, 1'000'000},
        {"memory.memLatency", cfg.memory.memLatency, 0, 1'000'000},
    };
    for (const Bound &b : bounds) {
        if (b.value >= b.min && b.value <= b.max)
            continue;
        if (b.max == any)
            return b.key + (" must be >= " + std::to_string(b.min));
        return b.key + (" must be in [" + std::to_string(b.min) + ", " +
                        std::to_string(b.max) + "]");
    }
    if (cfg.l1i.sizeBytes % (std::uint64_t{cfg.l1i.assoc} * blockBytes))
        return std::string("l1i.sizeBytes must be a whole number of sets");
    return std::nullopt;
}

} // namespace pifetch
