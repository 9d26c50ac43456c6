/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache/cache.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace pifetch {

namespace {

/** cfg.sets(), once the divisor it computes with is known nonzero. */
std::uint64_t
checkedSets(const CacheConfig &cfg)
{
    if (cfg.assoc == 0 || cfg.blockBytes == 0)
        fatalError("cache '" + cfg.name + "': associativity and block "
                   "size must be >= 1");
    return cfg.sets();
}

} // namespace

Cache::Cache(const CacheConfig &cfg, ReplacementKind, std::uint64_t)
    : sets_(checkedSets(cfg)),
      ways_(cfg.assoc),
      stats_(cfg.name),
      hits_(stats_, "hits", "demand hits"),
      misses_(stats_, "misses", "demand misses"),
      prefetchFills_(stats_, "prefetch_fills", "lines filled by prefetch"),
      usefulPrefetches_(stats_, "useful_prefetches",
                        "first demand touches of prefetched lines"),
      unusedPrefetches_(stats_, "unused_prefetches",
                        "prefetched lines evicted untouched"),
      evictions_(stats_, "evictions", "valid lines evicted")
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        fatalError("cache '" + cfg.name + "': set count must be a power "
                   "of two (size/assoc/block mismatch)");
    setShift_ = static_cast<unsigned>(bits::countrZero(sets_));
    tags_.assign(sets_ * ways_, invalidAddr);
    valid_.assign(sets_ * ways_, 0);
    prefetched_.assign(sets_ * ways_, 0);
    stamp_.assign(sets_ * ways_, 0);
}

Cache::AccessResult
Cache::access(Addr block)
{
    const std::uint64_t set = setOf(block);
    const Addr tag = tagOf(block);
    const unsigned way = findWay(set, tag);

    AccessResult res;
    if (way == ways_) {
        ++misses_;
        return res;
    }

    const std::uint64_t idx = set * ways_ + way;
    res.hit = true;
    if (prefetched_[idx]) {
        res.firstDemandOfPrefetch = true;
        prefetched_[idx] = 0;
        ++usefulPrefetches_;
    }
    touchWay(set, way);
    ++hits_;
    return res;
}

Addr
Cache::fill(Addr block, bool prefetched)
{
    const std::uint64_t set = setOf(block);
    const Addr tag = tagOf(block);
    unsigned way = findWay(set, tag);
    const std::uint64_t base = set * ways_;

    if (way != ways_) {
        // Already present (e.g. demand fill racing a prefetch): just
        // refresh recency; do not downgrade an existing demand line to
        // prefetched state.
        prefetched_[base + way] =
            prefetched_[base + way] && prefetched ? 1 : 0;
        touchWay(set, way);
        return invalidAddr;
    }

    // Prefer an invalid way before consulting the replacement policy.
    way = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!valid_[base + w]) {
            way = w;
            break;
        }
    }

    Addr victim = invalidAddr;
    if (way == ways_) {
        way = victimWay(set);
        victim = (tags_[base + way] << setShift_) | set;
        if (prefetched_[base + way])
            ++unusedPrefetches_;
        ++evictions_;
    }

    tags_[base + way] = tag;
    valid_[base + way] = 1;
    prefetched_[base + way] = prefetched ? 1 : 0;
    if (prefetched)
        ++prefetchFills_;
    touchWay(set, way);
    return victim;
}

bool
Cache::invalidate(Addr block)
{
    const std::uint64_t set = setOf(block);
    const unsigned way = findWay(set, tagOf(block));
    if (way == ways_)
        return false;
    const std::uint64_t idx = set * ways_ + way;
    if (prefetched_[idx])
        ++unusedPrefetches_;
    valid_[idx] = 0;
    prefetched_[idx] = 0;
    tags_[idx] = invalidAddr;
    return true;
}

bool
Cache::isPrefetched(Addr block) const
{
    const std::uint64_t set = setOf(block);
    const unsigned way = findWay(set, tagOf(block));
    if (way == ways_)
        return false;
    return prefetched_[set * ways_ + way] != 0;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), invalidAddr);
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
    std::fill(stamp_.begin(), stamp_.end(), 0);
    tick_ = 0;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (std::uint8_t v : valid_)
        n += v ? 1 : 0;
    return n;
}

} // namespace pifetch
