/**
 * @file
 * Proactive Instruction Fetch prefetcher (Section 4, Figure 4).
 *
 * Assembles the four PIF hardware structures: per-trap-level spatial
 * and temporal compactors feeding per-trap-level history buffers and
 * index tables, plus a shared pool of stream address buffers that
 * monitor front-end fetches and issue prefetch candidates.
 *
 * The history buffers and index tables form PifHistory, which a
 * prefetcher either owns (the paper's dedicated per-core storage) or
 * shares with other cores' prefetchers (the Section 4 extension).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/flat_hash.hh"
#include "pif/history_buffer.hh"
#include "pif/index_table.hh"
#include "pif/prefetch_queue.hh"
#include "pif/sab.hh"
#include "pif/spatial_compactor.hh"
#include "pif/temporal_compactor.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/**
 * The recording half of PIF (Section 4.2): one history buffer and one
 * index table per recording chain (two chains when
 * cfg.separateTrapLevels is set, else one).
 *
 * The paper evaluates "completely independent dedicated predictor
 * hardware for each core" and defers sharing the storage across cores
 * (Section 4). Building several PifPrefetchers over one shared
 * PifHistory models that deferred design: a stream recorded by one
 * core replays on every other core, while compactors and SABs, which
 * track per-core execution state, stay private. Simulation is
 * sequential, so no synchronization is modelled.
 */
class PifHistory
{
  public:
    /**
     * @param cfg PIF parameters; historyRegions/indexEntries size the
     *        total capacity, split 7/8 : 1/8 between TL0 and TL1 when
     *        trap levels are separate.
     * @param unbounded_storage Remove all capacity limits (the
     *        Figure 10 "no storage limitation" configuration).
     */
    explicit PifHistory(const PifConfig &cfg,
                        bool unbounded_storage = false);

    /** Number of recording chains. */
    std::size_t chains() const { return histories_.size(); }

    /** History buffer of recording chain @p chain. */
    HistoryBuffer &history(std::size_t chain) { return histories_[chain]; }
    const HistoryBuffer &history(std::size_t chain) const
    {
        return histories_[chain];
    }

    /** Index table of recording chain @p chain. */
    IndexTable &index(std::size_t chain) { return indexes_[chain]; }
    const IndexTable &index(std::size_t chain) const
    {
        return indexes_[chain];
    }

    /** Regions recorded over all chains (and all sharing cores). */
    std::uint64_t regionsRecorded() const;

    /** Drop all recorded history. */
    void reset();

  private:
    // Sized once at construction and never resized, so the raw
    // pointers PifPrefetcher keeps into them stay valid.
    std::vector<HistoryBuffer> histories_;
    std::vector<IndexTable> indexes_;
};

/**
 * The complete PIF mechanism as an engine-pluggable Prefetcher.
 *
 * With cfg.separateTrapLevels set (the RetireSep configuration of
 * Figure 2), interrupt-handler execution records into its own history
 * so handler noise cannot fragment application streams; the history
 * buffer capacity is split 7/8 : 1/8 between TL0 and TL1.
 */
class PifPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param cfg PIF design parameters.
     * @param unbounded_storage Remove history/index capacity limits
     *        (the Figure 10 "no storage limitation" configuration).
     */
    explicit PifPrefetcher(const PifConfig &cfg,
                           bool unbounded_storage = false);

    /**
     * A prefetcher recording into and replaying from @p history, which
     * other cores' prefetchers may share. reset() leaves it intact.
     *
     * @param cfg PIF design parameters; must agree with @p history on
     *        separateTrapLevels.
     */
    PifPrefetcher(const PifConfig &cfg,
                  std::shared_ptr<PifHistory> history);

    std::string name() const override { return "PIF"; }

    // The three engine hooks run on every instruction of every replay;
    // they are defined inline (below the class) so the engines'
    // monomorphized loops can fold them in without LTO.
    void onFetchAccess(const FetchInfo &info) override;
    void onRetire(const RetiredInstr &instr, bool tagged) override;

    /**
     * Same-block retire runs hit the spatial compactor's same-block
     * early-out on every instruction, so only its PC counter moves.
     */
    void
    onRetireSameBlockRun(TrapLevel tl, std::uint32_t count) override
    {
        chains_[chainFor(tl)].spatial->observeSameBlock(count);
    }

    unsigned drainRequests(std::vector<Addr> &out, unsigned max) override;
    void reset() override;
    void resetStats() override;

    /**
     * Prediction coverage counters (Section 5.4's "predictor coverage"):
     * a correct-path fetch access counts as covered when it was
     * delivered from a prefetched block, matched an active SAB window,
     * or was already sitting in the prefetch queue.
     */
    std::uint64_t coveredAccesses(TrapLevel tl) const
    {
        return covered_[tl];
    }
    /** Total correct-path accesses observed at @p tl. */
    std::uint64_t totalAccesses(TrapLevel tl) const { return total_[tl]; }

    /** Coverage ratio at trap level @p tl. */
    double
    coverage(TrapLevel tl) const
    {
        return total_[tl] == 0
            ? 0.0
            : static_cast<double>(covered_[tl]) /
              static_cast<double>(total_[tl]);
    }

    /** Overall coverage across trap levels. */
    double coverage() const;

    /**
     * Regions recorded into history (all trap levels; all sharing
     * cores when the history is shared).
     */
    std::uint64_t regionsRecorded() const
    {
        return history_->regionsRecorded();
    }

    /** SAB allocations performed. */
    std::uint64_t sabAllocations() const { return sabAllocations_; }

    /** Access the per-TL history (tests, studies). */
    const HistoryBuffer &history(TrapLevel tl) const
    {
        return *chains_[chainFor(tl)].history;
    }

    /** Access the per-TL index table (tests). */
    const IndexTable &index(TrapLevel tl) const
    {
        return *chains_[chainFor(tl)].index;
    }

  private:
    /** Recording chain for one trap level. */
    struct Chain
    {
        std::unique_ptr<SpatialCompactor> spatial;
        std::unique_ptr<TemporalCompactor> temporal;
        HistoryBuffer *history = nullptr;  //!< owned by history_
        IndexTable *index = nullptr;       //!< owned by history_
    };

    /** Map a trap level to a chain slot. */
    std::size_t
    chainFor(TrapLevel tl) const
    {
        return (cfg_.separateTrapLevels && tl > 0) ? 1 : 0;
    }

    /** Route a completed spatial region down its chain. */
    void recordRegion(Chain &chain, const SpatialRegion &rec);

    /** Recompute the pooled SAB coverage bounds (see onFetchAccess). */
    void
    refreshStreamBounds()
    {
        Addr lo = invalidAddr;
        Addr hi = 0;
        for (const StreamAddressBuffer &sab : sabs_) {
            lo = std::min(lo, sab.boundLo());
            hi = std::max(hi, sab.boundHi());
        }
        streamLo_ = lo;
        streamHi_ = hi;
    }

    PifConfig cfg_;
    std::shared_ptr<PifHistory> history_;
    bool ownsHistory_ = false;  //!< reset() clears history_ only if set
    std::vector<Chain> chains_;
    std::vector<StreamAddressBuffer> sabs_;
    std::uint64_t sabTick_ = 0;

    /** Pooled fast-reject bounds over all SABs ([invalidAddr, 0] when
     * no stream is live, which rejects every block). */
    Addr streamLo_ = invalidAddr;
    Addr streamHi_ = 0;

    PrefetchQueue queue_;
    std::vector<Addr> scratch_;  //!< SAB emission buffer

    std::uint64_t covered_[maxTrapLevels] = {0, 0};
    std::uint64_t total_[maxTrapLevels] = {0, 0};
    std::uint64_t sabAllocations_ = 0;
};

inline void
PifPrefetcher::recordRegion(Chain &chain, const SpatialRegion &rec)
{
    if (!chain.temporal->admit(rec))
        return;  // filtered loop-iteration redundancy
    const std::uint64_t seq = chain.history->append(rec);
    // Index insertion is conditional on the fetch-stage tag; history
    // insertion is unconditional (Section 4.2).
    if (rec.triggerTagged)
        chain.index->insert(rec.triggerPc, seq);
}

inline void
PifPrefetcher::onRetire(const RetiredInstr &instr, bool tagged)
{
    Chain &chain = chains_[chainFor(instr.trapLevel)];
    if (auto done = chain.spatial->observe(instr.pc, tagged,
                                           instr.trapLevel)) {
        recordRegion(chain, *done);
    }
}

inline void
PifPrefetcher::onFetchAccess(const FetchInfo &info)
{
    // 1. Stream advancement: active SABs watch every front-end fetch.
    // Pool-level fast reject first: [streamLo_, streamHi_] bounds the
    // union of every SAB's own coverage bounds, so an access that
    // belongs to no stream (the common case) takes one compare pair
    // instead of the per-SAB scans. The bounds are a superset, never a
    // filter on matches; they move only when some SAB's window changes
    // (a match or an allocation), which is when we recompute.
    scratch_.clear();
    bool in_stream = false;
    if (info.block >= streamLo_ && info.block <= streamHi_) {
        for (StreamAddressBuffer &sab : sabs_) {
            if (sab.onAccess(info.block, scratch_)) {
                in_stream = true;
                sab.touch(++sabTick_);
            }
        }
        if (in_stream)
            refreshStreamBounds();
    }

    // Coverage accounting (correct-path fetches only).
    if (info.correctPath) {
        const TrapLevel tl = std::min<TrapLevel>(info.trapLevel,
                                                 maxTrapLevels - 1);
        ++total_[tl];
        const bool covered = (info.hit && info.wasPrefetched) ||
                             in_stream || queue_.contains(info.block);
        if (covered)
            ++covered_[tl];
    }

    // 2. Stream trigger: a fetch that was not delivered by a prefetch
    // consults the index table (Section 4.3).
    if (!(info.hit && info.wasPrefetched) && !in_stream) {
        Chain &chain = chains_[chainFor(info.trapLevel)];
        if (auto seq = chain.index->lookup(info.pc)) {
            if (chain.history->valid(*seq)) {
                // Allocate the LRU SAB for the new stream.
                StreamAddressBuffer *victim = &sabs_[0];
                for (StreamAddressBuffer &sab : sabs_) {
                    if (!sab.active()) {
                        victim = &sab;
                        break;
                    }
                    if (sab.lastUse() < victim->lastUse())
                        victim = &sab;
                }
                victim->allocate(chain.history, *seq, scratch_);
                victim->touch(++sabTick_);
                ++sabAllocations_;
                refreshStreamBounds();
            }
        }
    }

    for (Addr b : scratch_) {
        if (queue_.push(b))
            ++issued_;
    }
}

inline unsigned
PifPrefetcher::drainRequests(std::vector<Addr> &out, unsigned max)
{
    return queue_.drain(out, max);
}

} // namespace pifetch
