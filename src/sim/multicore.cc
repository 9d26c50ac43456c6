/**
 * @file
 * Multi-core runner implementation.
 */

#include "sim/multicore.hh"

#include "common/parallel.hh"

namespace pifetch {

double
MulticoreTraceResult::meanMissRatio() const
{
    if (perCore.empty())
        return 0.0;
    double sum = 0.0;
    for (const TraceRunResult &r : perCore)
        sum += r.missRatio();
    return sum / static_cast<double>(perCore.size());
}

double
MulticoreTraceResult::meanPifCoverage() const
{
    if (perCore.empty())
        return 0.0;
    double sum = 0.0;
    for (const TraceRunResult &r : perCore)
        sum += r.pifCoverage;
    return sum / static_cast<double>(perCore.size());
}

std::uint64_t
MulticoreTraceResult::totalMisses() const
{
    std::uint64_t sum = 0;
    for (const TraceRunResult &r : perCore)
        sum += r.misses;
    return sum;
}

MulticoreTraceResult
runMulticoreTrace(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg)
{
    MulticoreTraceResult out;
    out.perCore.resize(cores);
    // Cores are fully independent simulations: every task constructs
    // its own Program, SystemConfig, executor and prefetcher, shares
    // nothing mutable, and writes only its own result slot — so the
    // output is bit-identical to the serial loop at any thread count.
    parallelFor(cfg.threads, cores, [&](std::uint64_t core) {
        // Each core executes its own instance of the workload: same
        // program, different transaction interleaving and interrupt
        // arrivals (seed offset), exactly like distinct server threads.
        const Program prog = w.buildProgram(core);
        SystemConfig core_cfg = cfg;
        core_cfg.seed = cfg.seed + core * 7919;
        TraceEngine engine(core_cfg, prog,
                           w.executorConfig(core, core),
                           makePrefetcher(kind, core_cfg));
        out.perCore[core] = engine.run(warmup, measure);
    });
    return out;
}

void
interleave(std::vector<std::unique_ptr<TraceEngine>> &engines,
           InstCount total, InstCount chunk)
{
    InstCount done = 0;
    while (done < total) {
        const InstCount step = std::min(chunk, total - done);
        for (auto &engine : engines)
            engine->advance(step);
        done += step;
    }
}

namespace {

/** Mean correct-path miss ratio across engines from counter deltas. */
double
meanMissRatioSince(const std::vector<std::unique_ptr<TraceEngine>> &eng,
                   const std::vector<std::uint64_t> &acc0,
                   const std::vector<std::uint64_t> &miss0)
{
    double sum = 0.0;
    for (std::size_t c = 0; c < eng.size(); ++c) {
        const double acc = static_cast<double>(
            eng[c]->frontend().correctPathFetches() - acc0[c]);
        const double miss = static_cast<double>(
            eng[c]->frontend().correctPathMisses() - miss0[c]);
        sum += acc > 0.0 ? miss / acc : 0.0;
    }
    return sum / static_cast<double>(eng.size());
}

} // namespace

SharedPifStudyResult
runSharedPifStudy(const WorkloadRef &w, const Program &prog,
                  unsigned cores, std::uint64_t total_history_regions,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg)
{
    // All cores execute the SAME binary (distinct interleavings), as
    // on a real server; otherwise cross-core sharing cannot help.
    SharedPifStudyResult out;

    for (const bool shared : {false, true}) {
        SystemConfig run_cfg = cfg;
        run_cfg.pif.historyRegions =
            shared ? total_history_regions
                   : std::max<std::uint64_t>(total_history_regions /
                                                 cores,
                                             256);

        std::shared_ptr<PifHistory> history;
        if (shared)
            history = std::make_shared<PifHistory>(run_cfg.pif);

        std::vector<std::unique_ptr<TraceEngine>> engines;
        std::vector<PifPrefetcher *> prefetchers;
        for (unsigned core = 0; core < cores; ++core) {
            auto pf = shared
                ? std::make_unique<PifPrefetcher>(run_cfg.pif, history)
                : std::make_unique<PifPrefetcher>(run_cfg.pif);
            prefetchers.push_back(pf.get());
            SystemConfig core_cfg = run_cfg;
            core_cfg.seed = run_cfg.seed + core * 7919;
            engines.push_back(std::make_unique<TraceEngine>(
                core_cfg, prog,
                w.executorConfig(0, core + 1),
                std::move(pf)));
        }

        interleave(engines, warmup);
        std::vector<std::uint64_t> acc0(cores);
        std::vector<std::uint64_t> miss0(cores);
        for (unsigned c = 0; c < cores; ++c) {
            acc0[c] = engines[c]->frontend().correctPathFetches();
            miss0[c] = engines[c]->frontend().correctPathMisses();
            prefetchers[c]->resetStats();
        }
        interleave(engines, measure);

        const double miss_ratio =
            meanMissRatioSince(engines, acc0, miss0);
        double coverage = 0.0;
        for (const PifPrefetcher *pf : prefetchers)
            coverage += pf->coverage();
        coverage /= cores;

        if (shared) {
            out.sharedMissRatio = miss_ratio;
            out.sharedCoverage = coverage;
        } else {
            out.privateMissRatio = miss_ratio;
            out.privateCoverage = coverage;
        }
    }
    return out;
}

} // namespace pifetch
