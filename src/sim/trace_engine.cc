/**
 * @file
 * Trace engine implementation.
 */

#include "sim/trace_engine.hh"

#include "pif/pif_prefetcher.hh"
#include "sim/prefetcher_dispatch.hh"

namespace pifetch {

namespace {
/** Prefetch candidates applied per instruction step (functional). */
constexpr unsigned drainPerStep = 16;
} // namespace

TraceEngine::TraceEngine(const SystemConfig &cfg, const Program &prog,
                         const ExecutorConfig &exec_cfg,
                         std::unique_ptr<Prefetcher> prefetcher)
    : cfg_(cfg),
      exec_(prog, exec_cfg),
      l1i_(cfg.l1i),
      frontend_(cfg, l1i_, cfg.seed ^ 0xfe7c4),
      prefetcher_(std::move(prefetcher))
{
    batch_.reserve(batchLen_);
    events_.reserve(4096);
    drain_.reserve(drainPerStep);
}

template <typename P>
void
TraceEngine::stepBatch(P &prefetcher, const RecordBatch &batch)
{
    const bool observing = observers_.active();
    events_.clear();
    std::size_t ev0 = 0;

    for (std::uint32_t i = 0; i < batch.size; ++i) {
        const Addr block = batch.block[i];
        const std::uint8_t tl = batch.trapLevel[i];
        const bool noop = frontend_.stepIsNoop(
            block, static_cast<InstrKind>(batch.kind[i]), tl);

        // Bulk fast path: a maximal run of plain instructions fetched
        // from the current block at an unchanged trap level performs
        // no front-end steps, no fetch accesses, and (unobserved) no
        // digest folds. Collapse the whole run: the prefetcher sees
        // one same-block-run retire (exactly equivalent to the
        // per-instruction calls — every shipped retire hook is either
        // a no-op or the spatial compactor's same-block early-out),
        // and the drain keeps the per-instruction budget. Observers
        // need per-instruction folds, so the run stays scalar then.
        // Only the pc/kind/trapLevel/block columns are read here, so
        // the path composes with the executor's lean decode.
        if (!observing && noop) {
            std::uint32_t j = i + 1;
            while (j < batch.size && batch.plainCont[j])
                ++j;
            const std::uint32_t run = j - i;
            prefetcher.onRetireSameBlockRun(tl, run);
            // No accesses intervene, so nothing enqueues mid-run:
            // once a drain comes back empty the queue stays empty,
            // and stopping early is state-identical to draining once
            // per instruction.
            for (std::uint32_t k = 0; k < run; ++k) {
                drain_.clear();
                if (prefetcher.drainRequests(drain_, drainPerStep) == 0)
                    break;
                for (Addr b : drain_) {
                    if (!l1i_.probe(b))
                        l1i_.fill(b, true);
                }
            }
            i = j - 1;
            continue;
        }

        // Scalar fast path: a lone no-op step (observers attached)
        // still skips the out-of-line front-end call and reuses the
        // sticky tag.
        const RetiredInstr instr = batch.get(i);
        const bool tagged =
            noop ? frontend_.currentBlockTagged()
                 : frontend_.step(instr, events_);

        const std::size_t nev = events_.size() - ev0;
        const FetchAccess *evs = events_.data() + ev0;

        if (observing)
            observers_.observeStep(instr, evs, nev, exec_, frontend_,
                                   l1i_);

        for (std::size_t e = 0; e < nev; ++e)
            prefetcher.onFetchAccess(fetchInfoOf(evs[e], instr.pc));

        prefetcher.onRetire(instr, tagged);

        // Apply prefetch candidates: probe the tags first (Section
        // 4.3's line-buffer path); a functional fill models a timely
        // prefetch. This stays per-instruction — the fill changes what
        // the very next instruction's fetch hits.
        drain_.clear();
        prefetcher.drainRequests(drain_, drainPerStep);
        for (Addr b : drain_) {
            if (!l1i_.probe(b)) {
                l1i_.fill(b, true);
                if (observing)
                    observers_.observePrefetchFill(b);
            }
        }

        ev0 = events_.size();
    }
}

template <typename P>
void
TraceEngine::advanceWith(P &prefetcher, InstCount n)
{
    // Unobserved replay never reads the target/taken columns of plain
    // records (the bulk path keys on pc/kind/trapLevel/block, and
    // Frontend::step ignores both for Plain), so let the decoder skip
    // those fills. Observers fold whole records and need full batches.
    const bool lean = !observers_.active();
    while (n > 0) {
        const std::uint32_t want =
            n < batchLen_ ? static_cast<std::uint32_t>(n) : batchLen_;
        exec_.nextBatch(batch_, want, lean);
        if (batch_.size == 0)
            break;
        stepBatch(prefetcher, batch_);
        n -= batch_.size;
    }
}

void
TraceEngine::advance(InstCount n)
{
    // Monomorphize the replay loop on the known prefetcher set (the
    // ladder lives in sim/prefetcher_dispatch.hh).
    withConcretePrefetcher(*prefetcher_,
                           [&](auto &p) { advanceWith(p, n); });
}

void
TraceEngine::replayBatch(const RecordBatch &batch)
{
    withConcretePrefetcher(*prefetcher_,
                           [&](auto &p) { stepBatch(p, batch); });
}

TraceRunResult
TraceEngine::run(InstCount warmup, InstCount measure)
{
    advance(warmup);

    // Snapshot warmup-end counters so the result reflects only the
    // measurement window. instrs comes from the executor, not echoed
    // from the request, so the length-scaling and cross-engine oracles
    // (src/check/) compare a real counter: a replay loop that silently
    // ran short would show up here.
    const RunCounters base = liveRunCounters(exec_, frontend_);
    const std::uint64_t fills0 = l1i_.prefetchFills();
    const std::uint64_t useful0 = l1i_.usefulPrefetches();
    prefetcher_->resetStats();

    advance(measure);

    TraceRunResult res;
    static_cast<RunCounters &>(res) = liveRunCounters(exec_, frontend_);
    res.subtractBase(base);
    res.prefetchIssued = prefetcher_->issued();
    res.prefetchFills = l1i_.prefetchFills() - fills0;
    res.usefulPrefetches = l1i_.usefulPrefetches() - useful0;

    if (auto *pif = dynamic_cast<PifPrefetcher *>(prefetcher_.get())) {
        res.pifCoverageTl0 = pif->coverage(0);
        res.pifCoverageTl1 = pif->coverage(1);
        res.pifCoverage = pif->coverage();
    }
    res.retireDigest = observers_.retireDigest();
    res.accessDigest = observers_.accessDigest();
    return res;
}

} // namespace pifetch
