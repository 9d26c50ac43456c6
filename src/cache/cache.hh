/**
 * @file
 * Set-associative cache model operating on block addresses.
 *
 * The model is functional (tag array only): it answers hit/miss, tracks
 * the prefetched bit per line (needed by PIF's index-table insertion
 * rule, Section 4.2), and exposes explicit fill/invalidate so engines
 * can model miss latency themselves. Timing lives in the engines, not
 * here, matching the paper's split between trace studies and
 * cycle-accurate runs.
 *
 * The tag store is structure-of-arrays: tags, valid bits and prefetch
 * bits live in parallel vectors so the way scan in probe()/access() —
 * the hottest loop in batched replay — reads one dense tag run per set
 * and resolves the match with a conditional move instead of an early
 * exit branch per way. Replacement is true LRU, kept inline as
 * per-line use stamps (lowest stamp is the victim, first way on ties).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pifetch {

/** Replacement policy selector; true LRU is the only policy modelled. */
enum class ReplacementKind { LRU };

/**
 * A single-level, set-associative, block-addressed cache.
 *
 * All addresses passed to this class are block addresses
 * (byte address >> blockShift).
 */
class Cache
{
  public:
    /** Result of a demand access. */
    struct AccessResult
    {
        bool hit = false;
        /**
         * On a hit: whether the line was brought in by a prefetch and
         * this is the first demand touch (PIF tags such instructions as
         * "prefetched"; untagged triggers insert into the index table).
         */
        bool firstDemandOfPrefetch = false;
    };

    /**
     * The replacement kind and seed are accepted for source
     * compatibility and ignored: LRU needs no seed.
     */
    Cache(const CacheConfig &cfg,
          ReplacementKind repl = ReplacementKind::LRU,
          std::uint64_t seed = 0xc0ffee);

    /**
     * Demand access to @p block. Updates recency on hit; on miss the
     * caller is responsible for calling fill() (possibly later, to model
     * latency). Clears the line's prefetched bit on first demand touch.
     */
    AccessResult access(Addr block);

    /** Tag probe with no state change (used by prefetch filtering). */
    bool
    probe(Addr block) const
    {
        const std::uint64_t set = setOf(block);
        return findWay(set, tagOf(block)) != ways_;
    }

    /**
     * Install @p block. Evicts the replacement victim if the set is
     * full. @p prefetched marks the line as prefetch-installed.
     * @return the evicted block address, or invalidAddr if none.
     */
    Addr fill(Addr block, bool prefetched = false);

    /** Remove @p block if present. @return true if it was present. */
    bool invalidate(Addr block);

    /** True if @p block is present and still carries the prefetch bit. */
    bool isPrefetched(Addr block) const;

    /** Drop all lines and recency state. */
    void flush();

    /** Number of currently valid lines. */
    std::uint64_t validLines() const;

    std::uint64_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Demand hits observed. */
    std::uint64_t hits() const { return hits_.value(); }
    /** Demand misses observed. */
    std::uint64_t misses() const { return misses_.value(); }
    /** Lines installed by prefetch. */
    std::uint64_t prefetchFills() const { return prefetchFills_.value(); }
    /** Prefetched lines evicted without any demand touch. */
    std::uint64_t unusedPrefetches() const
    {
        return unusedPrefetches_.value();
    }
    /** Demand hits on prefetched lines (first touch). */
    std::uint64_t usefulPrefetches() const
    {
        return usefulPrefetches_.value();
    }

    /** Demand miss ratio. */
    double missRatio() const
    {
        return ratio(misses_.value(), hits_.value() + misses_.value());
    }

    /** Statistics group for reporting. */
    const StatGroup &stats() const { return stats_; }

    /** Zero all statistics (cache contents are preserved). */
    void resetStats() { stats_.resetAll(); }

  private:
    std::uint64_t setOf(Addr block) const { return block & (sets_ - 1); }
    Addr tagOf(Addr block) const { return block >> setShift_; }

    /**
     * Find the way holding @p tag in @p set, or ways() if absent.
     *
     * Branch-light: scans the full set unconditionally and selects the
     * matching way with a conditional move (tags are unique within a
     * set, so last-writer-wins is exact). The explicit valid test is
     * ANDed into the compare rather than relying on an invalid-tag
     * sentinel so degenerate one-set configurations cannot alias.
     */
    unsigned
    findWay(std::uint64_t set, Addr tag) const
    {
        const std::uint64_t base = set * ways_;
        unsigned way = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            const bool match =
                (valid_[base + w] != 0) & (tags_[base + w] == tag);
            way = match ? w : way;
        }
        return way;
    }

    /** Record a use of @p way. */
    void
    touchWay(std::uint64_t set, unsigned way)
    {
        stamp_[set * ways_ + way] = ++tick_;
    }

    /** Choose the LRU victim way in @p set (first way on ties). */
    unsigned
    victimWay(std::uint64_t set) const
    {
        const std::uint64_t base = set * ways_;
        unsigned best = 0;
        std::uint64_t best_stamp = stamp_[base];
        for (unsigned w = 1; w < ways_; ++w) {
            if (stamp_[base + w] < best_stamp) {
                best_stamp = stamp_[base + w];
                best = w;
            }
        }
        return best;
    }

    std::uint64_t sets_;
    unsigned ways_;
    unsigned setShift_;

    /** Parallel per-line arrays, indexed set * ways_ + way. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> prefetched_;

    /** LRU state: per-line last-use tick. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t tick_ = 0;

    StatGroup stats_;
    Counter hits_;
    Counter misses_;
    Counter prefetchFills_;
    Counter usefulPrefetches_;
    Counter unusedPrefetches_;
    Counter evictions_;
};

} // namespace pifetch
