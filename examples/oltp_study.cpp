/**
 * @file
 * OLTP deep-dive: the workload class the paper's introduction motivates.
 *
 * Runs both OLTP workloads (TPC-C on DB2 and Oracle) through the
 * registry's Figure 10 experiments — miss coverage on the functional
 * engine, then UIPC speedups on the cycle-level engine — a miniature
 * of the paper's Section 5.5/5.6 story.
 */

#include <chrono>
#include <cstdio>

#include "common/parallel.hh"
#include "sim/multicore.hh"
#include "sim/registry.hh"

using namespace pifetch;

int
main()
{
    // threads == 0 resolves to PIFETCH_THREADS or the hardware count;
    // results are identical at any thread count.
    const SystemConfig cfg;
    std::printf("host worker threads: %u "
                "(override with PIFETCH_THREADS)\n\n",
                resolveThreads(cfg.threads));

    RunOptions opts;
    opts.workloads = {ServerWorkload::OltpDb2, ServerWorkload::OltpOracle};
    opts.budget = ExperimentBudget{1'000'000, 4'000'000};
    for (const char *name : {"fig10-coverage", "fig10-speedup"}) {
        const ResultValue doc = runExperiment(*findExperiment(name), opts);
        std::printf("%s\n", renderText(doc).c_str());
    }

    // The paper's actual methodology: a 16-core CMP, results averaged
    // across the cores. Each core is an independent engine, so the
    // multicore runner spreads them over the worker pool.
    std::printf("=== 16-core CMP (PIF, DB2), parallel runner ===\n");
    // lint:allow(D-clock): demo prints wall-clock speed, not results
    const auto t0 = std::chrono::steady_clock::now();
    const auto mc = runMulticoreTrace(ServerWorkload::OltpDb2,
                                      PrefetcherKind::Pif,
                                      cfg.numCores, 250'000, 1'000'000,
                                      cfg);
    const double ms = std::chrono::duration<double, std::milli>(
        // lint:allow(D-clock): demo prints wall-clock speed, not results
        std::chrono::steady_clock::now() - t0).count();
    std::printf("  mean miss ratio %.4f, mean PIF coverage %.2f%%, "
                "%llu total misses\n",
                mc.meanMissRatio(), 100.0 * mc.meanPifCoverage(),
                static_cast<unsigned long long>(mc.totalMisses()));
    std::printf("  %u cores on %u threads in %.0f ms\n",
                cfg.numCores, resolveThreads(cfg.threads), ms);
    return 0;
}
