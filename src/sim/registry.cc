/**
 * @file
 * Experiment registry implementation.
 *
 * Each experiment is a `points` function listing its simulation
 * points in stages and a pure `reduce` building its tables from their
 * results. One scheduler (runStages) runs every experiment's points,
 * each distinct engine run once per RunMemo.
 */

#include "sim/registry.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <set>
#include <variant>

#include "common/parallel.hh"
#include "common/types.hh"
#include "pif/region_analyzer.hh"
#include "pif/spatial_compactor.hh"
#include "pif/storage.hh"
#include "pif/temporal_compactor.hh"
#include "sim/cycle_engine.hh"
#include "sim/multicore.hh"
#include "sim/trace_engine.hh"
#include "streams/jump_distance.hh"
#include "streams/stream_length.hh"
#include "streams/temporal_predictor.hh"

namespace pifetch {

namespace {

/** A table row of @p cells, in order. */
template <typename... Cells>
ResultValue
rowOf(Cells &&...cells)
{
    ResultValue row = ResultValue::array();
    (row.push(ResultValue(std::forward<Cells>(cells))), ...);
    return row;
}

/** Standard row prefix: workload class and display name. */
ResultValue
workloadRow(const WorkloadRef &w)
{
    return rowOf(w.group(), w.name());
}

/** A table whose rows are @p rows. */
ResultValue
tableOf(const std::string &title, const std::vector<std::string> &columns,
        const std::vector<ResultValue> &rows)
{
    ResultValue t = makeTable(title, columns);
    ResultValue &out = *t.find("rows");
    for (const ResultValue &row : rows)
        out.push(row);
    return t;
}

/** A document body holding the array @p tables. */
ResultValue
tablesBody(ResultValue tables)
{
    ResultValue body = ResultValue::object();
    body.set("tables", std::move(tables));
    return body;
}

/** One stage of one @p fn point per selected workload. */
std::vector<ExperimentStage>
perWorkload(const RunOptions &opts, const decltype(ExperimentPoint::run) &fn)
{
    ExperimentStage stage;
    for (const WorkloadRef &w : opts.workloads)
        stage.push_back({w, fn, {}, {}});
    return {stage};
}

/**
 * An engine point of @p w simulating @p run, whose @p Result @p fold
 * turns into the point's result.
 */
template <typename Result, typename Fold>
ExperimentPoint
enginePoint(const WorkloadRef &w, const EngineRun &run, Fold fold)
{
    return {w, nullptr, run, [fold](const EngineResult &r) {
                return ResultValue(fold(std::get<Result>(r)));
            }};
}

/** A functional-engine point: @p kind under @p cfg on @p w. */
template <typename Fold>
ExperimentPoint
tracePoint(const WorkloadRef &w, PrefetcherKind kind, bool unbounded,
           const SystemConfig &cfg, const ExperimentBudget &budget,
           Fold fold)
{
    return enginePoint<TraceRunResult>(
        w, {SimEngine::Trace, kind, unbounded, cfg, budget}, fold);
}

// --------------------------------------------------------- Table I

std::vector<ExperimentStage>
table1Points(const RunOptions &opts)
{
    return perWorkload(opts, [](const WorkloadRef &w, const Program &prog) {
        const WorkloadParams p = w.params();
        ResultValue row = workloadRow(w);
        row.push(static_cast<double>(prog.footprintBytes()) / (1 << 20));
        row.push(p.appFunctions);
        row.push(p.libFunctions);
        row.push(p.transactions);
        row.push(p.interruptRate);
        return row;
    });
}

ResultValue
table1Reduce(const RunOptions &opts, const std::vector<ResultValue> &apps)
{
    const SystemConfig &cfg = opts.cfg;

    ResultValue system = makeTable(
        "System parameters (Table I left)", {"parameter", "value"});
    {
        ResultValue &rows = *system.find("rows");
        const auto add = [&rows](const std::string &k, ResultValue v) {
            rows.push(rowOf(k, std::move(v)));
        };
        add("cores", cfg.numCores);
        add("l1i_bytes", cfg.l1i.sizeBytes);
        add("l1i_assoc", cfg.l1i.assoc);
        add("l1d_bytes", cfg.l1d.sizeBytes);
        add("block_bytes", cfg.l1i.blockBytes);
        add("rob_entries", cfg.core.robEntries);
        add("dispatch_width", cfg.core.dispatchWidth);
        add("l2_bytes", cfg.memory.l2SizeBytes);
        add("l2_hit_latency", cfg.memory.l2HitLatency);
        add("mem_latency", cfg.memory.memLatency);
        add("interconnect_latency", cfg.memory.interconnectLatency);
        add("branch_gshare_entries", cfg.branch.gshareEntries);
        add("pif_history_regions", cfg.pif.historyRegions);
        add("pif_region_blocks", cfg.pif.regionBlocks());
        add("pif_sabs", cfg.pif.numSabs);
    }

    ResultValue storage = makeTable(
        "Predictor storage (Section 5.4 trade-off)",
        {"structure", "kib"});
    {
        const PifStorage s = computePifStorage(cfg.pif);
        ResultValue &rows = *storage.find("rows");
        const auto add = [&rows](const std::string &k, double kib) {
            rows.push(rowOf(k, kib));
        };
        add("pif_history", s.historyBits / 8192.0);
        add("pif_index", s.indexBits / 8192.0);
        add("pif_sabs", s.sabBits / 8192.0);
        add("pif_compactors", s.compactorBits / 8192.0);
        add("pif_total", s.totalKiB());
        add("tifs_equal_capacity", tifsStorageBits(cfg.tifs) / 8192.0);
    }

    ResultValue app = tableOf(
        "Application parameters (Table I right, synthetic equivalents)",
        {"group", "workload", "footprint_mb", "app_functions",
         "lib_functions", "transactions", "interrupt_rate"},
        apps);

    return tablesBody(ResultValue::array()
                          .push(std::move(system))
                          .push(std::move(storage))
                          .push(std::move(app)));
}

// --------------------------------------------------------- Figure 2

/**
 * Coverage of the correct-path L1-I misses by a temporal predictor
 * following each of the four observation streams.
 */
std::vector<ExperimentStage>
fig2Points(const RunOptions &opts)
{
    return perWorkload(opts, [budget = *opts.budget, cfg = opts.cfg](
                                 const WorkloadRef &w, const Program &prog) {
        Executor exec(prog, w.executorConfig());
        Cache l1i(cfg.l1i);
        Frontend frontend(cfg, l1i, cfg.seed ^ 0xfe7c4);

        // Unbounded study predictor sizing.
        TemporalPredictorConfig study;
        study.historyCapacity = 0;
        study.indexEntries = 0;
        study.numStreams = 4;
        study.window = 16;
        TemporalStreamPredictor miss_pred(study);
        TemporalStreamPredictor access_pred(study);
        TemporalStreamPredictor retire_pred(study);
        TemporalStreamPredictor retire_sep[maxTrapLevels] = {
            TemporalStreamPredictor(study), TemporalStreamPredictor(study),
        };

        Addr last_retire_block = invalidAddr;
        Addr last_sep_block[maxTrapLevels] = {invalidAddr, invalidAddr};

        std::uint64_t total_misses = 0;
        std::uint64_t cov_miss = 0;
        std::uint64_t cov_access = 0;
        std::uint64_t cov_retire = 0;
        std::uint64_t cov_sep = 0;

        std::vector<FetchAccess> events;
        events.reserve(64);

        const InstCount total = budget.warmup + budget.measure;
        for (InstCount i = 0; i < total; ++i) {
            const bool measuring = i >= budget.warmup;
            const RetiredInstr instr = exec.next();
            events.clear();
            frontend.step(instr, events);

            for (const FetchAccess &ev : events) {
                const bool is_cp_miss = ev.correctPath && !ev.hit;
                if (is_cp_miss && measuring) {
                    ++total_misses;
                    // Coverage queries *before* this event's observations:
                    // "would a prefetcher following stream X have already
                    // predicted this block?"
                    if (miss_pred.covered(ev.block))
                        ++cov_miss;
                    if (access_pred.covered(ev.block))
                        ++cov_access;
                    if (retire_pred.covered(ev.block))
                        ++cov_retire;
                    const TrapLevel tl =
                        std::min<TrapLevel>(ev.trapLevel, maxTrapLevels - 1);
                    if (retire_sep[tl].covered(ev.block))
                        ++cov_sep;
                }
                // Observation streams: access sees everything the front-end
                // fetches (wrong path included); miss sees every L1-I miss.
                access_pred.observe(ev.block);
                if (!ev.hit)
                    miss_pred.observe(ev.block);
            }

            // Retire-order streams (block-collapsed).
            const Addr rblock = blockAddr(instr.pc);
            if (rblock != last_retire_block) {
                last_retire_block = rblock;
                retire_pred.observe(rblock);
            }
            const TrapLevel tl =
                std::min<TrapLevel>(instr.trapLevel, maxTrapLevels - 1);
            if (rblock != last_sep_block[tl]) {
                last_sep_block[tl] = rblock;
                retire_sep[tl].observe(rblock);
            }
        }

        const double denom =
            total_misses > 0 ? static_cast<double>(total_misses) : 1.0;
        ResultValue row = workloadRow(w);
        row.push(static_cast<double>(cov_miss) / denom);
        row.push(static_cast<double>(cov_access) / denom);
        row.push(static_cast<double>(cov_retire) / denom);
        row.push(static_cast<double>(cov_sep) / denom);
        row.push(total_misses);
        return row;
    });
}

ResultValue
fig2Reduce(const RunOptions &, const std::vector<ResultValue> &rows)
{
    return tablesBody(ResultValue::array().push(tableOf(
        "Correctly predicted correct-path L1-I misses (fraction)",
        {"group", "workload", "miss", "access", "retire", "retire_sep",
         "correct_path_misses"},
        rows)));
}

// --------------------------------------------------------- Figure 3

/**
 * Figure 3's analyzer: a wide window so the density distribution
 * itself reveals the useful geometry (up to 32 blocks as in the
 * paper's buckets).
 */
RegionAnalyzer
fig3Analyzer()
{
    return RegionAnalyzer(4, 27);
}

std::vector<ExperimentStage>
fig3Points(const RunOptions &opts)
{
    return perWorkload(opts, [instrs = opts.budget->measure](
                                 const WorkloadRef &w, const Program &p) {
        Executor exec(p, w.executorConfig());
        RegionAnalyzer analyzer = fig3Analyzer();
        for (InstCount i = 0; i < instrs; ++i)
            analyzer.observe(exec.next().pc);
        analyzer.finish();

        const auto fractions = [&w](const RangeHistogram &h) {
            ResultValue row = workloadRow(w);
            for (unsigned b = 0; b < h.ranges(); ++b)
                row.push(h.fractionAt(b));
            return row;
        };
        ResultValue out = ResultValue::object();
        out.set("density",
                fractions(analyzer.density()).push(analyzer.regions()));
        out.set("groups", fractions(analyzer.groups()));
        return out;
    });
}

ResultValue
fig3Reduce(const RunOptions &, const std::vector<ResultValue> &results)
{
    const RegionAnalyzer shape = fig3Analyzer();
    const auto table = [&](const char *title, const char *key,
                           const RangeHistogram &h, bool regions) {
        std::vector<std::string> cols = {"group", "workload"};
        for (unsigned b = 0; b < h.ranges(); ++b)
            cols.push_back(h.labelAt(b));
        if (regions)
            cols.push_back("regions");
        std::vector<ResultValue> rows;
        for (const ResultValue &r : results)
            rows.push_back(*r.find(key));
        return tableOf(title, cols, rows);
    };
    return tablesBody(
        ResultValue::array()
            .push(table("References to spatial regions by density "
                        "(unique blocks)", "density", shape.density(),
                        true))
            .push(table("Discontinuous access groups within regions",
                        "groups", shape.groups(), false)));
}

// ------------------------------------------- Figures 7 / 9 (left)

/** Table depth (highest log2 bucket shown) of Figure 7. */
constexpr unsigned fig7Buckets = 25;
/** Table depth (highest log2 bucket shown) of Figure 9 (left). */
constexpr unsigned fig9LeftBuckets = 21;

/** @p h as its highest bucket and cumulative fractions to @p cap. */
ResultValue
cumulativeOf(const Log2Histogram &h, unsigned cap)
{
    ResultValue cumulative = ResultValue::array();
    for (unsigned b = 0; b <= cap; ++b)
        cumulative.push(h.cumulativeAt(b));
    ResultValue out = ResultValue::object();
    out.set("highest", h.highestBucket());
    out.set("cumulative", std::move(cumulative));
    return out;
}

/**
 * The reduce of a per-workload cumulative log2 histogram table
 * showing buckets up to @p cap.
 */
decltype(ExperimentSpec::reduce)
cumulativeReduce(unsigned cap, const char *title)
{
    return [cap, title](const RunOptions &opts,
                        const std::vector<ResultValue> &results) {
        unsigned max_bucket = 1;
        for (const ResultValue &r : results) {
            max_bucket = std::max(
                max_bucket,
                static_cast<unsigned>(r.find("highest")->uintValue()));
        }
        max_bucket = std::min(max_bucket, cap);

        std::vector<std::string> cols = {"log2"};
        for (const WorkloadRef &w : opts.workloads)
            cols.push_back(w.name());
        ResultValue t = makeTable(title, cols);
        ResultValue &rows = *t.find("rows");
        for (unsigned b = 0; b <= max_bucket; ++b) {
            ResultValue row = rowOf(b);
            for (const ResultValue &r : results)
                row.push(r.find("cumulative")->at(b));
            rows.push(std::move(row));
        }
        return tablesBody(ResultValue::array().push(std::move(t)));
    };
}

std::vector<ExperimentStage>
fig7Points(const RunOptions &opts)
{
    return perWorkload(opts, [instrs = opts.budget->measure](
                                 const WorkloadRef &w, const Program &p) {
        Executor exec(p, w.executorConfig());
        JumpDistanceStudy study;
        Addr last_block = invalidAddr;
        for (InstCount i = 0; i < instrs; ++i) {
            const RetiredInstr instr = exec.next();
            if (instr.trapLevel != 0)
                continue;  // application stream, as in Section 5.1
            const Addr b = blockAddr(instr.pc);
            if (b != last_block) {
                last_block = b;
                study.observe(b);
            }
        }
        study.finish();
        return cumulativeOf(study.histogram(), fig7Buckets);
    });
}

std::vector<ExperimentStage>
fig9LeftPoints(const RunOptions &opts)
{
    return perWorkload(opts, [instrs = opts.budget->measure](
                                 const WorkloadRef &w, const Program &p) {
        Executor exec(p, w.executorConfig());
        // Compact the retire stream into spatial regions first: stream
        // lengths are measured in regions, matching the figure's axis.
        SpatialCompactor spatial(2, 5);
        TemporalCompactor temporal(4);
        StreamLengthStudy study;
        for (InstCount i = 0; i < instrs; ++i) {
            const RetiredInstr instr = exec.next();
            if (auto rec =
                    spatial.observe(instr.pc, true, instr.trapLevel)) {
                if (temporal.admit(*rec))
                    study.observe(rec->triggerPc);
            }
        }
        study.finish();
        return cumulativeOf(study.histogram(), fig9LeftBuckets);
    });
}

/**
 * One stage of workload x @p values points, each a bounded PIF run of
 * opts.cfg changed by @p apply that returns its [TL0, TL1, overall]
 * coverage.
 */
template <typename Value, std::size_t N, typename Apply>
std::vector<ExperimentStage>
pifCoverageSweep(const RunOptions &opts, const Value (&values)[N],
                 Apply apply)
{
    ExperimentStage stage;
    for (const WorkloadRef &w : opts.workloads) {
        for (const Value &v : values) {
            SystemConfig cfg = opts.cfg;
            apply(cfg, v);
            stage.push_back(tracePoint(
                w, PrefetcherKind::Pif, false, cfg, *opts.budget,
                [](const TraceRunResult &r) {
                    return rowOf(r.pifCoverageTl0, r.pifCoverageTl1,
                                 r.pifCoverage);
                }));
        }
    }
    return {stage};
}

// --------------------------------------------------------- Figure 8

/** Figure 8 (left)'s -4..+12 offset window around the trigger. */
constexpr int fig8Before = 4;
constexpr int fig8After = 12;

std::vector<ExperimentStage>
fig8LeftPoints(const RunOptions &opts)
{
    return perWorkload(opts, [instrs = opts.budget->measure](
                                 const WorkloadRef &w, const Program &p) {
        Executor exec(p, w.executorConfig());
        RegionAnalyzer analyzer(fig8Before, fig8After);
        for (InstCount i = 0; i < instrs; ++i)
            analyzer.observe(exec.next().pc);
        analyzer.finish();
        ResultValue weights = ResultValue::array();
        for (int off = -fig8Before; off <= fig8After; ++off)
            weights.push(analyzer.offsets().weightAt(off));
        return weights;
    });
}

ResultValue
fig8LeftReduce(const RunOptions &opts,
               const std::vector<ResultValue> &weights)
{
    // The paper aggregates by workload class; preserve the class
    // order of the selected workloads.
    std::vector<std::string> groups;
    std::vector<LinearHistogram> sums;
    for (std::size_t i = 0; i < opts.workloads.size(); ++i) {
        const std::string g = opts.workloads[i].group();
        auto it = std::find(groups.begin(), groups.end(), g);
        if (it == groups.end()) {
            sums.emplace_back(-fig8Before, fig8After);
            it = groups.insert(it, g);
        }
        LinearHistogram &sum =
            sums[static_cast<std::size_t>(it - groups.begin())];
        for (int off = -fig8Before; off <= fig8After; ++off) {
            if (off != 0)
                sum.add(off, weights[i].at(off + fig8Before).number());
        }
    }

    std::vector<std::string> cols = {"offset"};
    cols.insert(cols.end(), groups.begin(), groups.end());
    ResultValue t = makeTable(
        "References within spatial regions by distance from trigger "
        "(fraction)", cols);
    ResultValue &rows = *t.find("rows");
    for (int off = -fig8Before; off <= fig8After; ++off) {
        if (off == 0)
            continue;
        ResultValue row = rowOf(off);
        for (const LinearHistogram &h : sums)
            row.push(h.fractionAt(off));
        rows.push(std::move(row));
    }
    return tablesBody(ResultValue::array().push(std::move(t)));
}

/**
 * Figure 8 (right)'s region sizes as (blocks before, blocks after),
 * skewed toward succeeding blocks per Section 5.2.
 */
struct RegionGeometry { unsigned total, before, after; };
constexpr RegionGeometry fig8Geometries[] = {
    {1, 0, 0}, {2, 0, 1}, {4, 1, 2}, {6, 2, 3}, {8, 2, 5},
};

std::vector<ExperimentStage>
fig8RightPoints(const RunOptions &opts)
{
    return pifCoverageSweep(opts, fig8Geometries,
                            [](SystemConfig &c, const RegionGeometry &g) {
                                c.pif.blocksBefore = g.before;
                                c.pif.blocksAfter = g.after;
                            });
}

ResultValue
fig8RightReduce(const RunOptions &opts,
                const std::vector<ResultValue> &results)
{
    std::vector<std::string> cols = {"group", "workload", "trap_level"};
    for (const RegionGeometry &g : fig8Geometries)
        cols.push_back("r" + std::to_string(g.total));
    ResultValue t = makeTable(
        "PIF coverage vs spatial region size (fraction)", cols);
    ResultValue &rows = *t.find("rows");
    const std::size_t sizes = std::size(fig8Geometries);
    for (std::size_t i = 0; i < opts.workloads.size(); ++i) {
        for (const unsigned tl : {0u, 1u}) {
            ResultValue row = workloadRow(opts.workloads[i]);
            row.push("TL" + std::to_string(tl));
            for (std::size_t s = 0; s < sizes; ++s)
                row.push(results[i * sizes + s].at(tl));
            rows.push(std::move(row));
        }
    }
    return tablesBody(ResultValue::array().push(std::move(t)));
}

// ------------------------------------------------ Figure 9 (right)

constexpr std::uint64_t fig9HistorySizes[] = {
    2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024,
};

std::vector<ExperimentStage>
fig9RightPoints(const RunOptions &opts)
{
    return pifCoverageSweep(opts, fig9HistorySizes,
                            [](SystemConfig &c, std::uint64_t regions) {
                                c.pif.historyRegions = regions;
                            });
}

ResultValue
fig9RightReduce(const RunOptions &opts,
                const std::vector<ResultValue> &coverage)
{
    std::vector<std::string> cols = {"history_regions"};
    for (const WorkloadRef &w : opts.workloads)
        cols.push_back(w.name());
    ResultValue t = makeTable(
        "PIF predictor coverage vs history size (fraction)", cols);
    ResultValue &rows = *t.find("rows");
    const std::size_t sizes = std::size(fig9HistorySizes);
    for (std::size_t s = 0; s < sizes; ++s) {
        ResultValue row = rowOf(fig9HistorySizes[s]);
        for (std::size_t i = 0; i < opts.workloads.size(); ++i)
            row.push(coverage[i * sizes + s].at(2));
        rows.push(std::move(row));
    }
    return tablesBody(ResultValue::array().push(std::move(t)));
}

// -------------------------------------------------------- Figure 10

/**
 * One stage per workload with @p kinds as its points, so only one
 * workload's Program is live at a time. @p point(kind, workload)
 * builds each point.
 */
template <std::size_t N, typename Point>
std::vector<ExperimentStage>
perWorkloadKinds(const RunOptions &opts, const PrefetcherKind (&kinds)[N],
                 Point point)
{
    std::vector<ExperimentStage> stages;
    for (const WorkloadRef &w : opts.workloads) {
        ExperimentStage stage;
        for (const PrefetcherKind kind : kinds)
            stage.push_back(point(kind, w));
        stages.push_back(std::move(stage));
    }
    return stages;
}

/**
 * Figure 10's rows: per workload, @p relative(result, baseline) for
 * each non-baseline kind in order, then the baseline result itself.
 */
std::vector<ResultValue>
relativeRows(const RunOptions &opts, const std::vector<ResultValue> &results,
             std::size_t kinds,
             double (*relative)(const ResultValue &, const ResultValue &))
{
    std::vector<ResultValue> rows;
    for (std::size_t i = 0; i < opts.workloads.size(); ++i) {
        const ResultValue &base = results[i * kinds];
        rows.push_back(workloadRow(opts.workloads[i]));
        for (std::size_t k = 1; k < kinds; ++k)
            rows.back().push(relative(results[i * kinds + k], base));
        rows.back().push(base);
    }
    return rows;
}

/** Figure 10 (left): None is the baseline defining the misses. */
constexpr PrefetcherKind fig10CoverageKinds[] = {
    PrefetcherKind::None, PrefetcherKind::NextLine,
    PrefetcherKind::Tifs, PrefetcherKind::Pif,
};

std::vector<ExperimentStage>
fig10CoveragePoints(const RunOptions &opts)
{
    return perWorkloadKinds(
        opts, fig10CoverageKinds,
        [&opts](PrefetcherKind kind, const WorkloadRef &w) {
            // Section 5.5 compares without storage limitations.
            return tracePoint(w, kind, true, opts.cfg, *opts.budget,
                              [](const TraceRunResult &r) {
                                  return r.misses;
                              });
        });
}

ResultValue
fig10CoverageReduce(const RunOptions &opts,
                    const std::vector<ResultValue> &misses)
{
    const auto coverage = [](const ResultValue &left,
                             const ResultValue &base) {
        const double b = static_cast<double>(base.uintValue());
        return b == 0.0
            ? 0.0
            : std::max(1.0 - static_cast<double>(left.uintValue()) / b,
                       0.0);
    };
    return tablesBody(ResultValue::array().push(tableOf(
        "L1-I miss coverage, no storage limitation (fraction)",
        {"group", "workload", "next_line", "tifs", "pif",
         "baseline_misses"},
        relativeRows(opts, misses, std::size(fig10CoverageKinds),
                     coverage))));
}

/** Figure 10 (right): None is the baseline UIPC. */
constexpr PrefetcherKind fig10SpeedupKinds[] = {
    PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Tifs,
    PrefetcherKind::Pif, PrefetcherKind::Perfect,
};

std::vector<ExperimentStage>
fig10SpeedupPoints(const RunOptions &opts)
{
    return perWorkloadKinds(
        opts, fig10SpeedupKinds,
        [&opts](PrefetcherKind kind, const WorkloadRef &w) {
            return enginePoint<CycleRunResult>(
                w, {SimEngine::Cycle, kind, false, opts.cfg, *opts.budget},
                [](const CycleRunResult &r) { return r.uipc; });
        });
}

ResultValue
fig10SpeedupReduce(const RunOptions &opts,
                   const std::vector<ResultValue> &uipc)
{
    const auto speedup = [](const ResultValue &x, const ResultValue &base) {
        return base.number() > 0.0 ? x.number() / base.number() : 0.0;
    };
    const std::vector<ResultValue> rows = relativeRows(
        opts, uipc, std::size(fig10SpeedupKinds), speedup);
    double geo_pif = 1.0;
    double geo_perfect = 1.0;
    for (const ResultValue &row : rows) {
        geo_pif *= row.at(4).number();      // the pif column
        geo_perfect *= row.at(5).number();  // the perfect column
    }

    const double n = static_cast<double>(opts.workloads.size());
    const auto geomean = [n](double product) {
        return n == 1.0 ? product : std::pow(product, 1.0 / n);
    };
    return tablesBody(
        ResultValue::array()
            .push(tableOf(
                "Speedup over the no-prefetch baseline (UIPC ratio)",
                {"group", "workload", "next_line", "tifs", "pif",
                 "perfect", "baseline_uipc"},
                rows))
            .push(tableOf("Geometric-mean speedup",
                          {"prefetcher", "speedup"},
                          {rowOf("PIF", geomean(geo_pif)),
                           rowOf("Perfect", geomean(geo_perfect))})));
}

// --------------------------------------------------------- Ablation

constexpr unsigned ablationDepths[] = {1, 2, 4, 8, 16};
constexpr unsigned ablationSabs[] = {1, 2, 4, 8};
constexpr unsigned ablationWindows[] = {3, 7, 15};
constexpr std::uint64_t ablationSharedTotals[] = {8192, 32768};
constexpr unsigned ablationDegrees[] = {1, 2, 4, 8};

std::vector<ExperimentStage>
ablationPoints(const RunOptions &opts)
{
    // Single-workload study: only the first selection runs, so every
    // point shares one Program.
    const WorkloadRef w = opts.workloads.front();
    const ExperimentBudget budget = *opts.budget;
    const SystemConfig &base = opts.cfg;

    ExperimentStage stage;
    // One functional run of `kind` under `cfg`, reported by `row`.
    const auto add = [&](PrefetcherKind kind, const SystemConfig &cfg,
                         auto row) {
        stage.push_back(tracePoint(w, kind, false, cfg, budget, row));
    };
    for (const unsigned depth : ablationDepths) {
        SystemConfig cfg = base;
        cfg.pif.temporalEntries = depth;
        add(PrefetcherKind::Pif, cfg, [depth](const TraceRunResult &r) {
            return rowOf(depth, r.pifCoverage,
                         static_cast<double>(r.prefetchIssued) * 1000.0 /
                             static_cast<double>(r.instrs),
                         r.missRatio());
        });
    }
    for (const unsigned sabs : ablationSabs) {
        for (const unsigned window : ablationWindows) {
            SystemConfig cfg = base;
            cfg.pif.numSabs = sabs;
            cfg.pif.sabWindowRegions = window;
            add(PrefetcherKind::Pif, cfg,
                [sabs, window](const TraceRunResult &r) {
                    return rowOf(sabs, window, r.pifCoverage,
                                 r.missRatio());
                });
        }
    }
    for (const bool separate : {false, true}) {
        SystemConfig cfg = base;
        cfg.pif.separateTrapLevels = separate;
        add(PrefetcherKind::Pif, cfg, [separate](const TraceRunResult &r) {
            return rowOf(separate, r.pifCoverage, r.missRatio());
        });
    }
    for (const std::uint64_t total : ablationSharedTotals) {
        stage.push_back({w, [=](const WorkloadRef &wl, const Program &p) {
            const SharedPifStudyResult r = runSharedPifStudy(
                wl, p, 4, total, budget.warmup / 2, budget.measure / 2,
                base);
            return rowOf(total, r.privateCoverage, r.sharedCoverage,
                         r.privateMissRatio, r.sharedMissRatio);
        }, {}, {}});
    }
    for (const unsigned degree : ablationDegrees) {
        SystemConfig cfg = base;
        cfg.nextLine.degree = degree;
        add(PrefetcherKind::NextLine, cfg,
            [degree](const TraceRunResult &r) {
                const double useful = r.prefetchFills == 0
                    ? 0.0
                    : static_cast<double>(r.usefulPrefetches) /
                      static_cast<double>(r.prefetchFills);
                return rowOf(degree, r.missRatio(), useful);
            });
    }
    return {stage};
}

ResultValue
ablationReduce(const RunOptions &opts, const std::vector<ResultValue> &rows)
{
    const WorkloadRef &w = opts.workloads.front();
    struct Section
    {
        std::string title;
        std::vector<std::string> columns;
        std::size_t points;
    };
    const Section sections[] = {
        {"Temporal compactor depth (PIF on " + w.name() + ")",
         {"entries", "coverage", "issued_per_kinst", "miss_ratio"},
         std::size(ablationDepths)},
        {"SAB count x window (paper: 4 SABs x 7 regions)",
         {"sabs", "window", "coverage", "miss_ratio"},
         std::size(ablationSabs) * std::size(ablationWindows)},
        {"Trap-level stream separation",
         {"separate", "coverage", "miss_ratio"}, 2},
        {"Shared vs private PIF storage (4 cores)",
         {"total_regions", "private_coverage", "shared_coverage",
          "private_miss_ratio", "shared_miss_ratio"},
         std::size(ablationSharedTotals)},
        {"Next-line degree", {"degree", "miss_ratio", "useful_per_fill"},
         std::size(ablationDegrees)},
    };
    ResultValue tables = ResultValue::array();
    auto next = rows.begin();
    for (const Section &s : sections) {
        tables.push(tableOf(s.title, s.columns,
                            std::vector<ResultValue>(next, next + s.points)));
        next += s.points;
    }
    ResultValue body = tablesBody(std::move(tables));
    // Report the one workload run so meta.workloads never over-claims.
    body.set("workloads", ResultValue::array().push(w.key()));
    return body;
}

ExperimentBudget
engineBudget()
{
    ExperimentBudget b;
    b.warmup = 1'500'000;
    b.measure = 6'000'000;
    return b;
}

// -------------------------------------------------------- scheduler

/** Same workload by identity: one preset, or one lowered spec. */
bool
sameWorkload(const WorkloadRef &a, const WorkloadRef &b)
{
    return a.isSpec() ? a.lowered() == b.lowered()
                      : !b.isSpec() && a.preset() == b.preset();
}

/** @p opts with the spec's default workloads and budget filled in. */
RunOptions
resolvedOptions(const ExperimentSpec &spec, RunOptions opts)
{
    if (opts.workloads.empty())
        opts.workloads = spec.defaultWorkloads;
    if (!opts.budget)
        opts.budget = spec.defaultBudget;
    return opts;
}

} // namespace

/*
 * The whole run is planned against @p memo before the pool starts: an
 * engine point whose key @p memo holds, or whose key an earlier point
 * of the plan runs, folds the stored result; every other point runs.
 * Runs take one pool of min(threads, most runs in a stage) lanes and
 * write their own slots, and results enter @p memo in plan order
 * between stages, so neither the results nor the memo depend on the
 * lane count. Program rule (registry.hh) over the points that run: a
 * stage with none builds no Program.
 */
std::vector<ResultValue>
runStages(const std::vector<ExperimentStage> &stages, unsigned threads,
          RunMemo &memo)
{
    std::vector<std::vector<std::string>> keys(stages.size());
    std::vector<std::vector<std::size_t>> runs(stages.size());
    std::set<std::string> planned;
    std::size_t widest = 1;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        for (std::size_t i = 0; i < stages[s].size(); ++i) {
            const ExperimentPoint &p = stages[s][i];
            std::string key;
            if (p.engine)
                key = engineRunKey(p.workload, *p.engine);
            if (!p.engine ||
                (!memo.results.count(key) && planned.insert(key).second))
                runs[s].push_back(i);
            else
                ++memo.reused;
            keys[s].push_back(std::move(key));
        }
        memo.executed += runs[s].size();
        widest = std::max(widest, runs[s].size());
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(resolveThreads(threads), widest)));

    std::vector<ResultValue> results;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const ExperimentStage &stage = stages[s];
        const std::vector<std::size_t> &run = runs[s];
        std::optional<Program> shared;
        if (!run.empty() &&
            std::all_of(run.begin(), run.end(), [&](std::size_t i) {
                return sameWorkload(stage[i].workload,
                                    stage[run.front()].workload);
            }))
            shared.emplace(stage[run.front()].workload.buildProgram());

        std::vector<ResultValue> out(stage.size());
        std::vector<std::optional<EngineResult>> simulated(run.size());
        pool.parallelFor(run.size(), [&](std::uint64_t j) {
            const ExperimentPoint &p = stage[run[j]];
            const auto go = [&](const Program &prog) {
                if (p.engine)
                    simulated[j] = runEngine(*p.engine, p.workload, prog);
                else
                    out[run[j]] = p.run(p.workload, prog);
            };
            if (shared)
                go(*shared);
            else
                go(p.workload.buildProgram());
        });
        for (std::size_t j = 0; j < run.size(); ++j) {
            if (simulated[j])
                memo.results.emplace(keys[s][run[j]],
                                     std::move(*simulated[j]));
        }
        for (std::size_t i = 0; i < stage.size(); ++i) {
            if (stage[i].fold)
                out[i] = stage[i].fold(memo.results.at(keys[s][i]));
            results.push_back(std::move(out[i]));
        }
    }
    return results;
}

std::vector<ExperimentStage>
experimentStages(const ExperimentSpec &spec, const RunOptions &opts)
{
    return spec.points(resolvedOptions(spec, opts));
}

const std::vector<ExperimentSpec> &
experimentRegistry()
{
    static const std::vector<ExperimentSpec> registry = [] {
        std::vector<ExperimentSpec> specs;
        std::vector<WorkloadRef> all;
        for (ServerWorkload w : allServerWorkloads())
            all.push_back(w);

        specs.push_back({
            "table1",
            "System and application parameters (Table I) plus the "
            "Section 5.4 predictor storage model",
            "",
            all, engineBudget(), table1Points, table1Reduce});
        specs.push_back({
            "fig2-streams",
            "Correctly predicted correct-path L1-I misses at the four "
            "stream observation points (Figure 2)",
            "paper shape: Miss < Access < Retire < RetireSep; "
            "RetireSep near-perfect",
            all, engineBudget(), fig2Points, fig2Reduce});
        specs.push_back({
            "fig3-regions",
            "Spatial region density and discontinuous access groups "
            "(Figure 3)",
            "paper shape: >50% of regions access more than one block; "
            "about a fifth observe discontinuous accesses",
            all, engineBudget(), fig3Points, fig3Reduce});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig7-jumpdist",
            "Coverage-weighted jump distance in history (Figure 7)",
            "paper shape: medium-aged and old streams contribute as "
            "many correct predictions as recent streams",
            all, engineBudget(), fig7Points,
            cumulativeReduce(fig7Buckets, "Weighted jump distance in "
                                          "history (cumulative fraction)")});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig8-offsets",
            "References by block offset from the trigger access "
            "(Figure 8 left)",
            "paper shape: +1/+2 dominate; frequency decays with "
            "distance; backward accesses occur with significant "
            "frequency",
            all, engineBudget(), fig8LeftPoints, fig8LeftReduce});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig8-regionsize",
            "PIF coverage per trap level vs spatial region size "
            "(Figure 8 right)",
            "paper shape: TL0 grows slightly with region size; TL1 "
            "improves significantly",
            all, engineBudget(), fig8RightPoints, fig8RightReduce});
        specs.push_back({
            "fig9-streamlen",
            "Correct predictions by temporal stream length "
            "(Figure 9 left)",
            "paper shape: medium and long streams contribute more "
            "correct predictions than short streams",
            all, engineBudget(), fig9LeftPoints,
            cumulativeReduce(fig9LeftBuckets,
                             "Correct predictions by temporal stream "
                             "length (cumulative fraction, log2 "
                             "regions)")});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig9-history",
            "PIF predictor coverage vs history buffer capacity "
            "(Figure 9 right)",
            "paper shape: coverage rises monotonically with storage; "
            "little justification beyond 32K regions",
            all, engineBudget(), fig9RightPoints, fig9RightReduce});
        specs.push_back({
            "fig10-coverage",
            "L1-I miss coverage of Next-Line, TIFS and PIF without "
            "storage limitations (Figure 10 left)",
            "paper shape: PIF nearly perfect across all workloads; "
            "TIFS 65-90%; next-line below TIFS",
            all, engineBudget(), fig10CoveragePoints, fig10CoverageReduce});
        specs.push_back({
            "fig10-speedup",
            "UIPC speedup over the no-prefetch baseline "
            "(Figure 10 right)",
            "paper shape: Next-Line < TIFS < PIF ~= Perfect "
            "(paper: PIF +27% avg, perfect +29%)",
            all, engineBudget(), fig10SpeedupPoints, fig10SpeedupReduce});
        specs.push_back({
            "ablation",
            "Design-space ablations: temporal compactor depth, SAB "
            "grid, trap separation, shared storage, next-line degree",
            "",
            {ServerWorkload::OltpDb2}, engineBudget(), ablationPoints,
            ablationReduce});
        return specs;
    }();
    return registry;
}

const ExperimentSpec *
findExperiment(const std::string &name)
{
    for (const ExperimentSpec &spec : experimentRegistry()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

ResultValue
configToResult(const SystemConfig &cfg)
{
    ResultValue pif = ResultValue::object();
    pif.set("blocksBefore", cfg.pif.blocksBefore);
    pif.set("blocksAfter", cfg.pif.blocksAfter);
    pif.set("temporalEntries", cfg.pif.temporalEntries);
    pif.set("historyRegions", cfg.pif.historyRegions);
    pif.set("indexEntries", cfg.pif.indexEntries);
    pif.set("numSabs", cfg.pif.numSabs);
    pif.set("sabWindowRegions", cfg.pif.sabWindowRegions);
    pif.set("separateTrapLevels", cfg.pif.separateTrapLevels);

    ResultValue out = ResultValue::object();
    out.set("seed", cfg.seed);
    out.set("numCores", cfg.numCores);
    out.set("l1iBytes", cfg.l1i.sizeBytes);
    out.set("l1iAssoc", cfg.l1i.assoc);
    out.set("pif", std::move(pif));
    out.set("tifsHistoryEntries", cfg.tifs.historyEntries);
    out.set("nextLineDegree", cfg.nextLine.degree);
    out.set("memLatency", cfg.memory.memLatency);
    return out;
}

EngineResult
runEngine(const EngineRun &run, const WorkloadRef &w, const Program &prog)
{
    const InstCount warmup = run.budget.warmup;
    const InstCount measure = run.budget.measure;
    if (run.engine == SimEngine::Trace) {
        TraceEngine engine(run.cfg, prog, w.executorConfig(),
                           makePrefetcher(run.kind, run.cfg,
                                          run.unbounded));
        return engine.run(warmup, measure);
    }
    if (run.unbounded)
        panic("the cycle engine has no unbounded-storage mode");
    CycleEngine engine(run.cfg, prog, w.executorConfig(), run.kind);
    return engine.run(warmup, measure);
}

namespace {

/** Appends the bytes of each of @p fields to @p key. */
template <typename... Fields>
void
putFields(std::string &key, const Fields &...fields)
{
    (key.append(reinterpret_cast<const char *>(&fields), sizeof fields),
     ...);
}

void
putCache(std::string &key, const CacheConfig &c)
{
    putFields(key, c.name.size());
    key += c.name;
    putFields(key, c.sizeBytes, c.assoc, c.blockBytes, c.hitLatency,
              c.mshrs);
}

} // namespace

std::string
engineRunKey(const WorkloadRef &w, const EngineRun &run)
{
    std::string key = w.isSpec()
        ? "spec " + toJson(specToResult(w.lowered()->spec))
        : "preset " + w.key();
    key += '\0';
    putFields(key, run.engine, run.kind, run.unbounded, run.budget.warmup,
              run.budget.measure);

    // Every SystemConfig field, in declaration order.
    const SystemConfig c = effectiveConfig(run.kind, run.cfg);
    putCache(key, c.l1i);
    putCache(key, c.l1d);
    const BranchConfig &b = c.branch;
    putFields(key, b.gshareEntries, b.bimodalEntries, b.chooserEntries,
              b.historyBits, b.btbEntries, b.btbAssoc, b.rasEntries);
    const CoreConfig &core = c.core;
    putFields(key, core.dispatchWidth, core.retireWidth, core.robEntries,
              core.fetchQueueEntries, core.frontendDepth,
              core.minResolveCycles, core.maxResolveCycles,
              core.dataStallFraction, core.dataStallCycles);
    const MemoryConfig &m = c.memory;
    putFields(key, m.l2SizeBytes, m.l2Assoc, m.l2HitLatency, m.l2Mshrs,
              m.memLatency, m.interconnectLatency);
    const PifConfig &p = c.pif;
    putFields(key, p.blocksBefore, p.blocksAfter, p.temporalEntries,
              p.historyRegions, p.indexEntries, p.indexAssoc, p.numSabs,
              p.sabWindowRegions, p.separateTrapLevels);
    const TifsConfig &t = c.tifs;
    putFields(key, t.historyEntries, t.indexEntries, t.indexAssoc,
              t.numSabs, t.sabWindowBlocks);
    putFields(key, c.nextLine.degree, c.numCores, c.seed, c.threads);
    return key;
}

ResultValue
runExperiment(const ExperimentSpec &spec, const RunOptions &request)
{
    RunMemo memo;
    return runExperiment(spec, request, memo);
}

ResultValue
runExperiment(const ExperimentSpec &spec, const RunOptions &request,
              RunMemo &memo)
{
    const RunOptions opts = resolvedOptions(spec, request);
    const ExperimentBudget &budget = *opts.budget;
    ResultValue body = spec.reduce(
        opts, runStages(spec.points(opts), opts.cfg.threads, memo));

    ResultValue meta = ResultValue::object();
    // Analysis-only studies never read the system config and make a
    // single pass of `measure` instructions; omitting seed/config/
    // warmup keeps the provenance honest (they had no effect).
    if (spec.usesConfig) {
        meta.set("seed", opts.cfg.seed);
        meta.set("warmup", budget.warmup);
    }
    meta.set("measure", budget.measure);
    meta.set("threads", resolveThreads(opts.cfg.threads));
    meta.set("git", gitDescribe());
    // A body may narrow the selection (the ablation runs only its
    // first workload); trust its report over the requested list.
    if (ResultValue *used = body.find("workloads")) {
        meta.set("workloads", std::move(*used));
    } else {
        ResultValue workloads = ResultValue::array();
        for (const WorkloadRef &w : opts.workloads)
            workloads.push(w.key());
        meta.set("workloads", std::move(workloads));
    }
    if (spec.usesConfig)
        meta.set("config", configToResult(opts.cfg));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", spec.name);
    doc.set("description", spec.description);
    doc.set("meta", std::move(meta));
    doc.set("tables", std::move(*body.find("tables")));
    ResultValue notes = ResultValue::array();
    if (!spec.paperShape.empty())
        notes.push(spec.paperShape);
    doc.set("notes", std::move(notes));
    return doc;
}

// --------------------------------------------------- config overrides

bool
parseU64Value(const std::string &s, std::uint64_t &out)
{
    // strtoull silently wraps negatives to huge values; reject them.
    if (s.empty() || s.find('-') != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

namespace {

/** A settable SystemConfig field; its type fixes how values parse. */
using ConfigField = std::variant<unsigned *, std::uint64_t *, bool *>;

/** One `--set` key: the field path it names and how to reach it. */
struct ConfigKey
{
    const char *key;
    ConfigField (*field)(SystemConfig &);
};

// The key is the field's own path, so the two cannot drift apart.
#define CONFIG_KEY(path)                                              \
    ConfigKey { #path, [](SystemConfig &c) -> ConfigField {           \
        return &c.path; } }

/** Every override key, in `pifetch list` order. */
const std::vector<ConfigKey> &
configKeyTable()
{
    static const std::vector<ConfigKey> table = {
        CONFIG_KEY(seed),
        CONFIG_KEY(threads),
        CONFIG_KEY(numCores),
        CONFIG_KEY(l1i.sizeBytes),
        CONFIG_KEY(l1i.assoc),
        CONFIG_KEY(l1i.mshrs),
        CONFIG_KEY(memory.memLatency),
        CONFIG_KEY(memory.l2HitLatency),
        CONFIG_KEY(core.robEntries),
        CONFIG_KEY(core.dispatchWidth),
        CONFIG_KEY(core.retireWidth),
        CONFIG_KEY(pif.blocksBefore),
        CONFIG_KEY(pif.blocksAfter),
        CONFIG_KEY(pif.temporalEntries),
        CONFIG_KEY(pif.historyRegions),
        CONFIG_KEY(pif.indexEntries),
        CONFIG_KEY(pif.numSabs),
        CONFIG_KEY(pif.sabWindowRegions),
        CONFIG_KEY(pif.separateTrapLevels),
        CONFIG_KEY(tifs.historyEntries),
        CONFIG_KEY(tifs.sabWindowBlocks),
        CONFIG_KEY(nextLine.degree),
    };
    return table;
}

#undef CONFIG_KEY

/** Parse @p value into @p f; false when it does not parse or fit. */
bool
setField(ConfigField f, const std::string &value)
{
    std::uint64_t u = 0;
    if (auto *p = std::get_if<unsigned *>(&f)) {
        if (!parseU64Value(value, u) ||
            u > std::numeric_limits<unsigned>::max())
            return false;
        **p = static_cast<unsigned>(u);
        return true;
    }
    if (auto *p = std::get_if<std::uint64_t *>(&f))
        return parseU64Value(value, **p);
    const bool on = value == "1" || value == "true" || value == "on";
    if (!on && value != "0" && value != "false" && value != "off")
        return false;
    *std::get<bool *>(f) = on;
    return true;
}

} // namespace

bool
applyConfigOverride(SystemConfig &cfg, const std::string &key,
                    const std::string &value, std::string *err)
{
    for (const ConfigKey &k : configKeyTable()) {
        if (key != k.key)
            continue;
        if (setField(k.field(cfg), value))
            return true;
        if (err)
            *err = "bad value '" + value + "' for " + key;
        return false;
    }
    if (err)
        *err = "unknown config key '" + key + "' (see `pifetch list`)";
    return false;
}

const std::vector<std::string> &
configOverrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const ConfigKey &k : configKeyTable())
            out.push_back(k.key);
        return out;
    }();
    return keys;
}

std::string
gitDescribe()
{
#ifdef PIFETCH_GIT_DESCRIBE
    return PIFETCH_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

// ----------------------------------------------------------- goldens

namespace {

/**
 * Load a zoo spec for the golden suite. The suite must never silently
 * shrink, so a missing or invalid zoo file is a hard error.
 */
WorkloadRef
zooWorkload(const std::string &key)
{
    const auto entry = findZooEntry(key);
    if (!entry) {
        panic("golden suite: workload spec '" + key +
              "' not found under " + workloadZooDir());
    }
    std::string err;
    auto spec = loadWorkloadSpecFile(entry->path, &err);
    if (!spec)
        panic("golden suite: " + err);
    return workloadRefFromSpec(std::move(*spec));
}

} // namespace

const std::vector<GoldenEntry> &
goldenSuite()
{
    static const std::vector<GoldenEntry> suite = [] {
        ExperimentBudget small;
        small.warmup = 120'000;
        small.measure = 260'000;

        std::vector<GoldenEntry> entries;
        {
            GoldenEntry e;
            e.experiment = "fig2-streams";
            e.options.workloads = {ServerWorkload::OltpDb2,
                                   ServerWorkload::WebApache};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig9-history";
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-coverage";
            e.options.workloads = {ServerWorkload::OltpDb2,
                                   ServerWorkload::WebApache};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-speedup";
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        // The only experiment that runs PIF over shared history.
        {
            GoldenEntry e;
            e.experiment = "ablation";
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        // Spec-driven runs are locked exactly like the preset ones:
        // two zoo workloads through two different experiments.
        {
            GoldenEntry e;
            e.experiment = "fig2-streams";
            e.options.workloads = {zooWorkload("microservice_fanout")};
            e.options.budget = small;
            e.fixture = "zoo-microservice-fanout";
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-coverage";
            e.options.workloads = {zooWorkload("cold_start_storm")};
            e.options.budget = small;
            e.fixture = "zoo-cold-start-storm";
            entries.push_back(std::move(e));
        }
        return entries;
    }();
    return suite;
}

std::string
goldenFixtureName(const GoldenEntry &entry)
{
    return entry.fixture.empty() ? entry.experiment : entry.fixture;
}

std::string
goldenJson(const GoldenEntry &entry, unsigned threads)
{
    const ExperimentSpec *spec = findExperiment(entry.experiment);
    if (!spec)
        panic("golden entry references unknown experiment");

    RunOptions opts = resolvedOptions(*spec, entry.options);
    opts.cfg.threads = threads;
    ResultValue full = runExperiment(*spec, opts);

    // Pinned metadata only: nothing that varies with checkout, host
    // or PIFETCH_THREADS may reach the fixture bytes.
    ResultValue meta = ResultValue::object();
    meta.set("mode", "golden");
    meta.set("seed", opts.cfg.seed);
    meta.set("warmup", opts.budget->warmup);
    meta.set("measure", opts.budget->measure);
    meta.set("workloads", std::move(*full.find("meta")->find("workloads")));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", spec->name);
    doc.set("meta", std::move(meta));
    doc.set("tables", std::move(*full.find("tables")));
    return toJson(doc, 2) + "\n";
}

} // namespace pifetch
