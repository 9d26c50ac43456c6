/**
 * @file
 * PIF prefetcher implementation.
 */

#include "pif/pif_prefetcher.hh"

#include <algorithm>

namespace pifetch {

PifHistory::PifHistory(const PifConfig &cfg, bool unbounded_storage)
{
    const unsigned num_chains = cfg.separateTrapLevels ? 2 : 1;
    histories_.reserve(num_chains);
    indexes_.reserve(num_chains);
    for (unsigned c = 0; c < num_chains; ++c) {
        std::uint64_t hist_cap = 0;
        unsigned index_entries = 0;
        if (!unbounded_storage) {
            if (num_chains == 2) {
                // Handlers are compact: give TL1 1/8 of the capacity.
                hist_cap = (c == 0) ? cfg.historyRegions * 7 / 8
                                    : cfg.historyRegions / 8;
                index_entries = (c == 0)
                    ? cfg.indexEntries * 7 / 8
                    : cfg.indexEntries / 8;
                // Keep set geometry valid (power-of-two sets).
                index_entries = std::max(index_entries,
                                         cfg.indexAssoc * 2);
                unsigned sets = index_entries / cfg.indexAssoc;
                while (sets & (sets - 1))
                    --sets;
                index_entries = sets * cfg.indexAssoc;
            } else {
                hist_cap = cfg.historyRegions;
                index_entries = cfg.indexEntries;
            }
        }
        histories_.emplace_back(hist_cap);
        indexes_.emplace_back(index_entries, cfg.indexAssoc);
    }
}

std::uint64_t
PifHistory::regionsRecorded() const
{
    std::uint64_t n = 0;
    for (const HistoryBuffer &h : histories_)
        n += h.appended();
    return n;
}

void
PifHistory::reset()
{
    for (HistoryBuffer &h : histories_)
        h.reset();
    for (IndexTable &t : indexes_)
        t.reset();
}

PifPrefetcher::PifPrefetcher(const PifConfig &cfg, bool unbounded_storage)
    : PifPrefetcher(cfg,
                    std::make_shared<PifHistory>(cfg, unbounded_storage))
{
    ownsHistory_ = true;
}

PifPrefetcher::PifPrefetcher(const PifConfig &cfg,
                             std::shared_ptr<PifHistory> history)
    : cfg_(cfg), history_(std::move(history))
{
    const unsigned num_chains = cfg_.separateTrapLevels ? 2 : 1;
    if (!history_ || history_->chains() != num_chains)
        panic("PIF history chain count disagrees with "
              "separateTrapLevels");
    for (unsigned c = 0; c < num_chains; ++c) {
        Chain chain;
        chain.spatial = std::make_unique<SpatialCompactor>(cfg_);
        chain.temporal =
            std::make_unique<TemporalCompactor>(cfg_.temporalEntries);
        chain.history = &history_->history(c);
        chain.index = &history_->index(c);
        chains_.push_back(std::move(chain));
    }

    for (unsigned s = 0; s < cfg_.numSabs; ++s) {
        sabs_.emplace_back(cfg_.sabWindowRegions, cfg_.blocksBefore);
    }
}

double
PifPrefetcher::coverage() const
{
    std::uint64_t cov = 0;
    std::uint64_t tot = 0;
    for (unsigned tl = 0; tl < maxTrapLevels; ++tl) {
        cov += covered_[tl];
        tot += total_[tl];
    }
    return tot == 0 ? 0.0 : static_cast<double>(cov) /
                            static_cast<double>(tot);
}

void
PifPrefetcher::resetStats()
{
    Prefetcher::resetStats();
    for (unsigned tl = 0; tl < maxTrapLevels; ++tl) {
        covered_[tl] = 0;
        total_[tl] = 0;
    }
    sabAllocations_ = 0;
}

void
PifPrefetcher::reset()
{
    for (Chain &c : chains_) {
        c.spatial->reset();
        c.temporal->reset();
    }
    if (ownsHistory_)
        history_->reset();
    for (StreamAddressBuffer &sab : sabs_)
        sab.deactivate();
    streamLo_ = invalidAddr;
    streamHi_ = 0;
    sabTick_ = 0;
    queue_.clear();
    for (unsigned tl = 0; tl < maxTrapLevels; ++tl) {
        covered_[tl] = 0;
        total_[tl] = 0;
    }
    sabAllocations_ = 0;
    issued_ = 0;
}

} // namespace pifetch
