/**
 * @file
 * pifbench_driver: the benchmark's set-up timer and traced replay.
 *
 * Two modes, both over one benchmark workload (see README.md):
 *
 *   setup  Time what a workload pays before its first simulated
 *          instruction: program construction (WorkloadRef::
 *          buildProgram, or scenarioFromSeed plus the scenario's
 *          program) and engine construction with its predictor
 *          tables, for every point of the workload. Repeated; the
 *          median repetition is reported.
 *
 *   trace  Replay every point of the workload through the layers'
 *          public functions (Executor::nextBatch, Frontend::step,
 *          the prefetcher hooks, Cache::probe/fill,
 *          MemoryHierarchy::request, TimingModel, the observers),
 *          mirroring TraceEngine / CycleEngine step for step, and
 *          record spans and exact per-layer counts. Every replayed
 *          point is then re-run through the engine itself
 *          (TraceEngine::run / CycleEngine::run, untraced) and the two
 *          results must agree field for field. check-fuzz also runs
 *          the oracle battery (runScenario); sweep-sab also runs its
 *          grid points (runSweepPoint), spawns its shards and merges
 *          them (mergeShardedSweep).
 *
 * Batch-level stages (decode, the per-batch step loop) are timed on
 * every batch. Per-instruction calls cost a few tens of nanoseconds,
 * so they are timed only on every sampleEvery-th batch, with the
 * clock's own cost subtracted, and scaled to all instructions; their
 * counts are exact on every batch.
 *
 *   spawn  Run a command and print its wall time and wait4 rusage
 *          (the Python runner's children would otherwise inherit its
 *          peak RSS).
 *
 * Results are written as one JSON object to --out; spans are written
 * as TSV to --spans when the run ends.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/digest.hh"
#include "common/results.hh"
#include "query/event_store.hh"
#include "sim/cycle_engine.hh"
#include "sim/observer.hh"
#include "sim/prefetcher_dispatch.hh"
#include "sim/registry.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "sweep/manifest.hh"
#include "sweep/runner.hh"
#include "trace/generator.hh"
#include "trace/workload_spec.hh"

extern char **environ;

using namespace pifetch;

namespace {

// ------------------------------------------------------------ clock

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ options

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 42;
    unsigned checkSeeds = 50;
    std::string pifetch;
    std::string workDir;
    std::string sweepDir;
    std::vector<std::string> docs;
    std::string out;
    std::string spans;
    std::string fault;
    /** Budget overrides for fast self-tests (0 = workload default). */
    InstCount warmup = 0;
    InstCount measure = 0;
};

/**
 * Set-up repetitions run for about this long (at least three); the
 * runner samples set-up this way between the command's repetitions.
 */
constexpr std::int64_t setupRepNs = 200'000'000;

/** Replay batches between two timed (sampled) batches. */
constexpr std::uint64_t sampleEvery = 8;

/** Prefetch candidates drained per instruction, as in the engines. */
constexpr unsigned traceDrainPerStep = 16;
constexpr unsigned cycleDrainPerStep = 4;

// ------------------------------------------------------------ spans

enum SpanName : std::uint16_t {
    SpanProgram,    // trace.program_build
    SpanPoint,      // one replayed point (structural)
    SpanConstruct,  // sim.construct: engine + predictor tables
    SpanDecode,     // trace.decode: Executor::nextBatch
    SpanStep,       // one batch through the per-instruction stages
    SpanOracle,     // check.oracle: runScenario
    SpanSweepPoint, // sweep.point: runSweepPoint
    SpanSweepShard, // sweep.shard: one shard child process
    SpanSweepMerge, // sweep.merge: mergeShardedSweep
    SpanSerialize,  // results.serialize: toJson
    NumSpanNames
};

const char *const spanNames[NumSpanNames] = {
    "trace.program_build", "point", "sim.construct", "trace.decode",
    "sim.step", "check.oracle", "sweep.point", "sweep.shard",
    "sweep.merge", "results.serialize",
};

/** Per-instruction stages timed on sampled batches (metric names). */
enum Stage {
    StFrontend,   // core.step
    StPifTrain,   // pif.train
    StPifDrain,   // pif.drain
    StPfTrain,    // prefetch.train (other prefetchers, drain included)
    StProbeFill,  // cache.probe_fill
    StHierarchy,  // cache.hierarchy
    StTiming,     // sim.cycle.timing
    StReadyFill,  // sim.cycle.ready_fill
    StObserve,    // sim.observe (digest folds)
    StRecord,     // query.record (event store)
    NumStages
};

struct Span
{
    std::uint16_t name;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
};

/** One worker's span buffer (kept in memory until the run ends). */
class Tracer
{
  public:
    int
    open(SpanName name)
    {
        spans_.push_back(Span{name, cur_, nowNs(), 0});
        cur_ = static_cast<int>(spans_.size() - 1);
        return cur_;
    }

    void
    close(int id)
    {
        spans_[id].end = nowNs();
        cur_ = spans_[id].parent;
    }

    std::int64_t
    duration(int id) const
    {
        return spans_[id].end - spans_[id].start;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    int cur_ = -1;
};

/** Closes a span at scope exit. */
class Scoped
{
  public:
    Scoped(Tracer &t, SpanName n) : t_(t), id_(t.open(n)) {}
    ~Scoped() { t_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &t_;
    int id_;
};

// ------------------------------------------------------------ counts

/** Exact counts and sampled stage times of one replayed point. */
struct PointStats
{
    std::uint64_t records = 0;
    std::uint64_t steps = 0;
    std::uint64_t bulkInstrs = 0;
    std::uint64_t fetchAccesses = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t cpFetches = 0;
    std::uint64_t cpMisses = 0;
    std::uint64_t prefetchProbes = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t cacheFills = 0;
    std::uint64_t usefulPrefetches = 0;
    std::uint64_t l2Requests = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    // Prefetcher hooks (PIF and the other kinds apart).
    bool isPif = false;
    std::uint64_t hookAccessCalls = 0;
    std::uint64_t hookRetireCalls = 0;
    std::uint64_t drainCalls = 0;
    std::uint64_t issued = 0;
    std::uint64_t indexLookups = 0;
    std::uint64_t indexHits = 0;
    std::uint64_t regionsRecorded = 0;
    std::uint64_t sabAllocations = 0;
    double coverage = 0.0;
    // Cycle engine.
    bool isCycle = false;
    std::uint64_t pendingScanned = 0;
    std::uint64_t cycleInstrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t userInstrs = 0;
    std::uint64_t fetchStallCycles = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t latePrefetches = 0;
    // Observers.
    std::uint64_t observedInstrs = 0;
    std::uint64_t slices = 0;
    std::uint64_t counterSamples = 0;
    // Sampled timing.
    std::int64_t stageNs[NumStages] = {};
    std::uint64_t stageCalls[NumStages] = {};
    std::uint64_t sampledInstrs = 0;
    std::uint64_t unsampledInstrs = 0;
    std::int64_t sampledStepNs = 0;
    std::int64_t unsampledStepNs = 0;
    // Wall of the traced replay and of the untraced engine run.
    double tracedS = 0.0;
    double untracedS = 0.0;
};

/** Times one per-instruction call on sampled batches. */
#define PIFBENCH_TIMED(stage, expr)                                     \
    do {                                                                \
        if (sampled) {                                                  \
            const std::int64_t t0_ = nowNs();                           \
            expr;                                                       \
            st.stageNs[stage] += nowNs() - t0_;                         \
            ++st.stageCalls[stage];                                     \
        } else {                                                        \
            expr;                                                       \
        }                                                               \
    } while (0)

// ------------------------------------------------------------ points

enum class EngineKind { Trace, Cycle };

/** One simulation point of a workload. */
struct Point
{
    std::string label;
    EngineKind engine = EngineKind::Trace;
    std::shared_ptr<const Program> prog;
    ExecutorConfig exec;
    SystemConfig cfg;
    PrefetcherKind kind = PrefetcherKind::None;
    bool unbounded = false;
    InstCount warmup = 0;
    InstCount measure = 0;
    /** Digests + event store (the check battery's step-1 runs). */
    bool observe = false;
};

/** The event-store options of the check battery's windowed oracles. */
EventStoreOptions
oracleEventOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.maxSlices = std::uint64_t{1} << 20;
    opts.recordRetires = false;
    opts.recordFetches = true;
    opts.recordPrefetches = false;
    return opts;
}

/** Observer state of a replay: digests and the event store. */
struct ReplayObservers
{
    StreamDigest retire;
    StreamDigest access;
    EventStore store{oracleEventOptions()};
    std::uint64_t interrupts = 0;
    std::uint8_t prevTl = 0;
};

/**
 * EngineObservers::observeStep, split at its two public halves: the
 * digest folds (sim.observe) and the event-store rows (query.record).
 */
void
observeStep(ReplayObservers &o, const Executor &exec,
            const Frontend &frontend, const Cache &l1i,
            const RetiredInstr &instr, const FetchAccess *evs,
            std::size_t nev, PointStats &st, bool sampled)
{
    o.interrupts += static_cast<std::uint64_t>(
        instr.trapLevel != 0 && o.prevTl == 0);
    o.prevTl = instr.trapLevel;
    PIFBENCH_TIMED(StObserve, {
        digestRetire(o.retire, instr);
        for (std::size_t e = 0; e < nev; ++e)
            digestAccess(o.access, evs[e]);
    });
    PIFBENCH_TIMED(StRecord, {
        o.store.recordRetire(0, instr);
        for (std::size_t e = 0; e < nev; ++e)
            o.store.recordAccess(0, evs[e],
                                 evs[e].correctPath
                                     ? instr.pc
                                     : blockBase(evs[e].block));
        if (o.store.counterSampleDue(0)) {
            RunCounters live = liveRunCounters(exec, frontend);
            live.interrupts = o.interrupts;
            o.store.sampleCounters(
                0, counterSnapshotOf(live, l1i.prefetchFills()));
        }
    });
    ++st.observedInstrs;
}

/** What a replay or an engine run produced, for the fidelity check. */
struct Outcome
{
    std::map<std::string, double> fields;
    std::vector<std::uint64_t> counterValues;
    std::vector<Addr> sliceBlocks;
};

void
putCounters(Outcome &o, const RunCounters &c)
{
    o.fields["instrs"] = static_cast<double>(c.instrs);
    o.fields["accesses"] = static_cast<double>(c.accesses);
    o.fields["misses"] = static_cast<double>(c.misses);
    o.fields["wrongPathFetches"] = static_cast<double>(c.wrongPathFetches);
    o.fields["mispredicts"] = static_cast<double>(c.mispredicts);
    o.fields["interrupts"] = static_cast<double>(c.interrupts);
    // Digests compared as two 32-bit halves so a double holds them.
    o.fields["retireDigestHi"] = static_cast<double>(c.retireDigest >> 32);
    o.fields["retireDigestLo"] =
        static_cast<double>(c.retireDigest & 0xffffffffu);
    o.fields["accessDigestHi"] = static_cast<double>(c.accessDigest >> 32);
    o.fields["accessDigestLo"] =
        static_cast<double>(c.accessDigest & 0xffffffffu);
}

Outcome
outcomeOf(const TraceRunResult &r)
{
    Outcome o;
    putCounters(o, r);
    o.fields["prefetchIssued"] = static_cast<double>(r.prefetchIssued);
    o.fields["prefetchFills"] = static_cast<double>(r.prefetchFills);
    o.fields["usefulPrefetches"] = static_cast<double>(r.usefulPrefetches);
    o.fields["pifCoverageTl0"] = r.pifCoverageTl0;
    o.fields["pifCoverageTl1"] = r.pifCoverageTl1;
    o.fields["pifCoverage"] = r.pifCoverage;
    return o;
}

Outcome
outcomeOf(const CycleRunResult &r)
{
    Outcome o;
    putCounters(o, r);
    o.fields["cycles"] = static_cast<double>(r.cycles);
    o.fields["userInstrs"] = static_cast<double>(r.userInstrs);
    o.fields["uipc"] = r.uipc;
    o.fields["fetchStallCycles"] = static_cast<double>(r.fetchStallCycles);
    o.fields["branchPenaltyCycles"] =
        static_cast<double>(r.branchPenaltyCycles);
    o.fields["demandMisses"] = static_cast<double>(r.demandMisses);
    o.fields["latePrefetches"] = static_cast<double>(r.latePrefetches);
    o.fields["prefetchFills"] = static_cast<double>(r.prefetchFills);
    o.fields["l2Hits"] = static_cast<double>(r.l2Hits);
    o.fields["l2Misses"] = static_cast<double>(r.l2Misses);
    return o;
}

void
putStore(Outcome &o, const EventStore &s)
{
    o.counterValues = s.counterValue();
    o.sliceBlocks = s.sliceBlock();
}

/** Field-for-field differences between a replay and an engine run. */
std::vector<std::string>
diffOutcomes(const Outcome &replay, const Outcome &engine)
{
    std::vector<std::string> diffs;
    for (const auto &[k, v] : engine.fields) {
        const auto it = replay.fields.find(k);
        if (it == replay.fields.end() || it->second != v) {
            std::ostringstream os;
            os.precision(17);
            os << k << ": replay "
               << (it == replay.fields.end() ? -1.0 : it->second)
               << " engine " << v;
            diffs.push_back(os.str());
        }
    }
    if (replay.counterValues != engine.counterValues)
        diffs.push_back("event-store counter samples differ");
    if (replay.sliceBlocks != engine.sliceBlocks)
        diffs.push_back("event-store fetch slices differ");
    return diffs;
}

/** Read PIF internals through the public getters after a run. */
void
collectPrefetcher(Prefetcher &pf, PointStats &st)
{
    st.issued = pf.issued();
    if (auto *pif = dynamic_cast<PifPrefetcher *>(&pf)) {
        st.isPif = true;
        const IndexTable *seen = nullptr;
        for (TrapLevel tl = 0; tl < maxTrapLevels; ++tl) {
            const IndexTable &idx = pif->index(tl);
            if (&idx == seen)
                continue;
            seen = &idx;
            st.indexLookups += idx.lookups();
            st.indexHits += idx.hits();
        }
        st.regionsRecorded = pif->regionsRecorded();
        st.sabAllocations = pif->sabAllocations();
        st.coverage = pif->coverage();
    }
}

// ------------------------------------------------- trace-engine replay

/** TraceEngine's pipeline, driven from outside through public calls. */
class TraceReplay
{
  public:
    TraceReplay(const Point &p, std::unique_ptr<Prefetcher> pf)
        : exec_(*p.prog, p.exec),
          l1i_(p.cfg.l1i, ReplacementKind::LRU, p.cfg.seed),
          frontend_(p.cfg, l1i_, p.cfg.seed ^ 0xfe7c4),
          pf_(std::move(pf))
    {
        batch_.reserve(recordBatchLen);
        events_.reserve(4096);
        drain_.reserve(traceDrainPerStep);
        if (p.observe)
            obs_ = std::make_unique<ReplayObservers>();
    }

    Outcome
    run(const Point &p, Tracer &tr, PointStats &st, bool fault)
    {
        fault_ = fault;
        advance(p.warmup, tr, st);
        const RunCounters base = liveRunCounters(exec_, frontend_);
        const std::uint64_t fills0 = l1i_.prefetchFills();
        const std::uint64_t useful0 = l1i_.usefulPrefetches();
        pf_->resetStats();
        advance(p.measure, tr, st);

        TraceRunResult res;
        static_cast<RunCounters &>(res) = liveRunCounters(exec_, frontend_);
        res.subtractBase(base);
        res.prefetchIssued = pf_->issued();
        res.prefetchFills = l1i_.prefetchFills() - fills0;
        res.usefulPrefetches = l1i_.usefulPrefetches() - useful0;
        if (auto *pif = dynamic_cast<PifPrefetcher *>(pf_.get())) {
            res.pifCoverageTl0 = pif->coverage(0);
            res.pifCoverageTl1 = pif->coverage(1);
            res.pifCoverage = pif->coverage();
        }
        if (obs_) {
            res.retireDigest = obs_->retire.value();
            res.accessDigest = obs_->access.value();
        }

        st.mispredicts = frontend_.mispredicts();
        st.cpFetches = frontend_.correctPathFetches();
        st.cpMisses = frontend_.correctPathMisses();
        st.cacheFills = l1i_.prefetchFills();
        st.usefulPrefetches = l1i_.usefulPrefetches();
        collectPrefetcher(*pf_, st);

        Outcome o = outcomeOf(res);
        if (obs_) {
            putStore(o, obs_->store);
            st.slices = obs_->store.sliceCount();
            st.counterSamples = obs_->store.counterCount();
        }
        return o;
    }

  private:
    void
    advance(InstCount n, Tracer &tr, PointStats &st)
    {
        withConcretePrefetcher(*pf_, [&](auto &pf) {
            const bool lean = obs_ == nullptr;
            while (n > 0) {
                const std::uint32_t want =
                    n < recordBatchLen ? static_cast<std::uint32_t>(n)
                                       : recordBatchLen;
                {
                    Scoped s(tr, SpanDecode);
                    exec_.nextBatch(batch_, want, lean);
                }
                if (batch_.size == 0)
                    break;
                const bool sampled = batchIdx_++ % sampleEvery == 0;
                const int span = tr.open(SpanStep);
                stepBatch(pf, st, sampled);
                tr.close(span);
                const std::int64_t dt = tr.duration(span);
                st.records += batch_.size;
                if (sampled) {
                    st.sampledInstrs += batch_.size;
                    st.sampledStepNs += dt;
                } else {
                    st.unsampledInstrs += batch_.size;
                    st.unsampledStepNs += dt;
                }
                n -= batch_.size;
            }
        });
    }

    template <typename P>
    void
    stepBatch(P &pf, PointStats &st, bool sampled)
    {
        const bool pif = std::is_same<P, PifPrefetcher>::value;
        const Stage train = pif ? StPifTrain : StPfTrain;
        const Stage drainSt = pif ? StPifDrain : StPfTrain;
        // A planted fault (self-tests only): the candidates of one
        // drain call are dropped in every 8th batch.
        bool dropDrain = fault_ && batchIdx_ % 8 == 3;
        const RecordBatch &batch = batch_;
        events_.clear();
        std::size_t ev0 = 0;

        for (std::uint32_t i = 0; i < batch.size; ++i) {
            const Addr block = batch.block[i];
            const std::uint8_t tl = batch.trapLevel[i];
            const bool noop = frontend_.stepIsNoop(
                block, static_cast<InstrKind>(batch.kind[i]), tl);

            if (!obs_ && noop) {
                std::uint32_t j = i + 1;
                while (j < batch.size && batch.plainCont[j])
                    ++j;
                const std::uint32_t run = j - i;
                PIFBENCH_TIMED(train, pf.onRetireSameBlockRun(tl, run));
                ++st.hookRetireCalls;
                st.bulkInstrs += run;
                for (std::uint32_t k = 0; k < run; ++k) {
                    drain_.clear();
                    unsigned got;
                    PIFBENCH_TIMED(drainSt,
                                   got = pf.drainRequests(
                                       drain_, traceDrainPerStep));
                    ++st.drainCalls;
                    if (got == 0)
                        break;
                    if (dropDrain) {
                        dropDrain = false;
                        continue;
                    }
                    for (Addr b : drain_)
                        probeFill(b, st, sampled);
                }
                i = j - 1;
                continue;
            }

            const RetiredInstr instr = batch.get(i);
            bool tagged;
            if (noop) {
                tagged = frontend_.currentBlockTagged();
            } else {
                PIFBENCH_TIMED(StFrontend,
                               tagged = frontend_.step(instr, events_));
                ++st.steps;
            }
            const std::size_t nev = events_.size() - ev0;
            const FetchAccess *evs = events_.data() + ev0;

            if (obs_)
                observeStep(*obs_, exec_, frontend_, l1i_, instr, evs, nev,
                            st, sampled);

            for (std::size_t e = 0; e < nev; ++e) {
                const FetchAccess &ev = evs[e];
                FetchInfo info;
                info.block = ev.block;
                info.pc = ev.correctPath ? instr.pc : blockBase(ev.block);
                info.hit = ev.hit;
                info.wasPrefetched = ev.wasPrefetched;
                info.correctPath = ev.correctPath;
                info.trapLevel = ev.trapLevel;
                PIFBENCH_TIMED(train, pf.onFetchAccess(info));
            }
            st.fetchAccesses += nev;
            st.hookAccessCalls += nev;

            PIFBENCH_TIMED(train, pf.onRetire(instr, tagged));
            ++st.hookRetireCalls;

            drain_.clear();
            PIFBENCH_TIMED(drainSt,
                           pf.drainRequests(drain_, traceDrainPerStep));
            ++st.drainCalls;
            if (dropDrain && !drain_.empty()) {
                dropDrain = false;
                drain_.clear();
            }
            for (Addr b : drain_) {
                if (probeFill(b, st, sampled) && obs_) {
                    PIFBENCH_TIMED(StRecord,
                                   obs_->store.recordPrefetchFill(0, b));
                }
            }
            ev0 = events_.size();
        }
    }

    /** Probe, and fill on a tag miss. @return true when filled. */
    bool
    probeFill(Addr b, PointStats &st, bool sampled)
    {
        bool hit;
        PIFBENCH_TIMED(StProbeFill, hit = l1i_.probe(b));
        ++st.prefetchProbes;
        if (hit)
            return false;
        PIFBENCH_TIMED(StProbeFill, l1i_.fill(b, true));
        ++st.prefetchFills;
        return true;
    }

    Executor exec_;
    Cache l1i_;
    Frontend frontend_;
    std::unique_ptr<Prefetcher> pf_;
    std::unique_ptr<ReplayObservers> obs_;
    RecordBatch batch_;
    std::vector<FetchAccess> events_;
    std::vector<Addr> drain_;
    std::uint64_t batchIdx_ = 0;
    bool fault_ = false;
};

// ------------------------------------------------- cycle-engine replay

/** CycleEngine's pipeline, driven from outside through public calls. */
class CycleReplay
{
  public:
    explicit CycleReplay(const Point &p)
        : cfg_(p.cfg),
          kind_(p.kind),
          exec_(*p.prog, p.exec),
          l1i_(p.cfg.l1i, ReplacementKind::LRU, p.cfg.seed),
          frontend_(p.cfg, l1i_, p.cfg.seed ^ 0xfe7c4),
          hierarchy_(p.cfg.memory),
          pf_(makePrefetcher(p.kind, p.cfg)),
          timing_(p.cfg.core, p.cfg.seed ^ 0x7131)
    {
        batch_.reserve(recordBatchLen);
        events_.reserve(4096);
        drain_.reserve(cycleDrainPerStep);
        pending_.reserve(p.cfg.l1i.mshrs * 2);
        if (p.observe)
            obs_ = std::make_unique<ReplayObservers>();
    }

    Outcome
    run(const Point &p, Tracer &tr, PointStats &st, bool fault)
    {
        fault_ = fault;
        st.isCycle = true;
        advance(p.warmup, false, tr, st);

        const Cycle t0 = timing_.cycles();
        // lint:allow(D-unordered-iter): per-entry rebase, order-insensitive
        for (auto &entry : pending_)
            entry.second = entry.second > t0 ? entry.second - t0 : 0;
        timing_.resetStats();
        pf_->resetStats();
        demandMisses_ = 0;
        latePrefetches_ = 0;
        prefetchFills_ = 0;
        const std::uint64_t l2h0 = hierarchy_.l2Hits();
        const std::uint64_t l2m0 = hierarchy_.l2Misses();
        const RunCounters base = liveRunCounters(exec_, frontend_);

        advance(p.measure, true, tr, st);

        CycleRunResult res;
        static_cast<RunCounters &>(res) = liveRunCounters(exec_, frontend_);
        res.subtractBase(base);
        res.cycles = timing_.cycles();
        res.instrs = timing_.instructions();
        res.userInstrs = timing_.userInstructions();
        res.uipc = timing_.uipc();
        res.fetchStallCycles = timing_.fetchStallCycles();
        res.branchPenaltyCycles = timing_.branchPenaltyCycles();
        res.demandMisses = demandMisses_;
        res.latePrefetches = latePrefetches_;
        res.prefetchFills = prefetchFills_;
        res.l2Hits = hierarchy_.l2Hits() - l2h0;
        res.l2Misses = hierarchy_.l2Misses() - l2m0;
        if (obs_) {
            res.retireDigest = obs_->retire.value();
            res.accessDigest = obs_->access.value();
        }

        st.mispredicts = frontend_.mispredicts();
        st.cpFetches = frontend_.correctPathFetches();
        st.cpMisses = frontend_.correctPathMisses();
        st.cacheFills = l1i_.prefetchFills();
        st.usefulPrefetches = l1i_.usefulPrefetches();
        st.l2Hits = hierarchy_.l2Hits();
        st.l2Misses = hierarchy_.l2Misses();
        st.cycleInstrs = res.instrs;
        st.cycles = res.cycles;
        st.userInstrs = res.userInstrs;
        st.fetchStallCycles = res.fetchStallCycles;
        st.demandMisses = res.demandMisses;
        st.latePrefetches = res.latePrefetches;
        collectPrefetcher(*pf_, st);

        Outcome o = outcomeOf(res);
        if (obs_) {
            putStore(o, obs_->store);
            st.slices = obs_->store.sliceCount();
            st.counterSamples = obs_->store.counterCount();
        }
        return o;
    }

  private:
    void
    advance(InstCount n, bool measuring, Tracer &tr, PointStats &st)
    {
        withConcretePrefetcher(*pf_, [&](auto &pf) {
            while (n > 0) {
                const std::uint32_t want =
                    n < recordBatchLen ? static_cast<std::uint32_t>(n)
                                       : recordBatchLen;
                {
                    Scoped s(tr, SpanDecode);
                    exec_.nextBatch(batch_, want);
                }
                if (batch_.size == 0)
                    break;
                const bool sampled = batchIdx_++ % sampleEvery == 0;
                const int span = tr.open(SpanStep);
                stepBatch(pf, measuring, st, sampled);
                tr.close(span);
                const std::int64_t dt = tr.duration(span);
                st.records += batch_.size;
                if (sampled) {
                    st.sampledInstrs += batch_.size;
                    st.sampledStepNs += dt;
                } else {
                    st.unsampledInstrs += batch_.size;
                    st.unsampledStepNs += dt;
                }
                n -= batch_.size;
            }
        });
    }

    void
    processReadyFills(PointStats &st)
    {
        const Cycle now = timing_.cycles();
        st.pendingScanned += pending_.size();
        // Same container, reservation and operation sequence as the
        // engine, so the hash-order drain matches it exactly.
        // lint:allow(D-unordered-iter): mirrors the engine's drain order
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second <= now) {
                l1i_.fill(it->first, true);
                ++prefetchFills_;
                ++st.prefetchFills;
                if (obs_)
                    obs_->store.recordPrefetchFill(0, it->first);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }

    template <typename P>
    void
    stepBatch(P &pf, bool measuring, PointStats &st,
              bool sampled)
    {
        const bool pif = std::is_same<P, PifPrefetcher>::value;
        const Stage train = pif ? StPifTrain : StPfTrain;
        const Stage drainSt = pif ? StPifDrain : StPfTrain;
        const bool perfect = kind_ == PrefetcherKind::Perfect;
        bool dropDrain = fault_ && batchIdx_ % 8 == 3;
        const RecordBatch &batch = batch_;
        events_.clear();
        std::size_t ev0 = 0;

        for (std::uint32_t i = 0; i < batch.size; ++i) {
            PIFBENCH_TIMED(StReadyFill, processReadyFills(st));

            const RetiredInstr instr = batch.get(i);
            const Addr block = batch.block[i];
            const bool noop =
                frontend_.stepIsNoop(block, instr.kind, instr.trapLevel);
            bool tagged;
            if (noop) {
                tagged = frontend_.currentBlockTagged();
            } else {
                PIFBENCH_TIMED(StFrontend,
                               tagged = frontend_.step(instr, events_));
                ++st.steps;
            }
            const std::size_t nev = events_.size() - ev0;
            const FetchAccess *evs = events_.data() + ev0;

            if (obs_)
                observeStep(*obs_, exec_, frontend_, l1i_, instr, evs, nev,
                            st, sampled);

            for (std::size_t e = 0; e < nev; ++e) {
                const FetchAccess &ev = evs[e];
                if (ev.correctPath && !ev.hit && !perfect) {
                    auto it = pending_.find(ev.block);
                    Cycle stall;
                    if (it != pending_.end()) {
                        const Cycle now = timing_.cycles();
                        stall = it->second > now ? it->second - now : 0;
                        pending_.erase(it);
                        if (measuring)
                            ++latePrefetches_;
                    } else {
                        PIFBENCH_TIMED(StHierarchy,
                                       stall = hierarchy_.request(ev.block));
                        ++st.l2Requests;
                    }
                    PIFBENCH_TIMED(StTiming, timing_.fetchStall(stall));
                    if (measuring)
                        ++demandMisses_;
                }
                FetchInfo info;
                info.block = ev.block;
                info.pc = ev.correctPath ? instr.pc : blockBase(ev.block);
                info.hit = ev.hit;
                info.wasPrefetched = ev.wasPrefetched;
                info.correctPath = ev.correctPath;
                info.trapLevel = ev.trapLevel;
                PIFBENCH_TIMED(train, pf.onFetchAccess(info));
            }
            st.fetchAccesses += nev;
            st.hookAccessCalls += nev;

            const std::uint64_t misp = frontend_.mispredicts();
            for (std::uint64_t m = lastMispredicts_; m < misp; ++m)
                PIFBENCH_TIMED(StTiming, timing_.mispredict());
            lastMispredicts_ = misp;

            PIFBENCH_TIMED(train, pf.onRetire(instr, tagged));
            ++st.hookRetireCalls;
            PIFBENCH_TIMED(StTiming, timing_.instruction(instr.trapLevel));

            drain_.clear();
            PIFBENCH_TIMED(drainSt,
                           pf.drainRequests(drain_, cycleDrainPerStep));
            ++st.drainCalls;
            if (dropDrain && !drain_.empty()) {
                dropDrain = false;
                drain_.clear();
            }
            for (Addr b : drain_) {
                bool hit;
                PIFBENCH_TIMED(StProbeFill, hit = l1i_.probe(b));
                ++st.prefetchProbes;
                if (hit || pending_.count(b))
                    continue;
                if (pending_.size() >= cfg_.l1i.mshrs)
                    break;
                Cycle lat;
                PIFBENCH_TIMED(StHierarchy, lat = hierarchy_.request(b));
                ++st.l2Requests;
                pending_.emplace(b, timing_.cycles() + lat);
            }
            ev0 = events_.size();
        }
    }

    SystemConfig cfg_;
    PrefetcherKind kind_;
    Executor exec_;
    Cache l1i_;
    Frontend frontend_;
    MemoryHierarchy hierarchy_;
    std::unique_ptr<Prefetcher> pf_;
    TimingModel timing_;
    std::unordered_map<Addr, Cycle> pending_;
    std::unique_ptr<ReplayObservers> obs_;
    RecordBatch batch_;
    std::vector<FetchAccess> events_;
    std::vector<Addr> drain_;
    std::uint64_t demandMisses_ = 0;
    std::uint64_t latePrefetches_ = 0;
    std::uint64_t prefetchFills_ = 0;
    std::uint64_t lastMispredicts_ = 0;
    std::uint64_t batchIdx_ = 0;
    bool fault_ = false;
};

// ------------------------------------------------- engine reference

/** The engine's own untraced run of a point. */
Outcome
engineRun(const Point &p)
{
    EventStore store(oracleEventOptions());
    auto run = [&](auto &engine) {
        if (p.observe) {
            ObserverConfig obs;
            obs.digests = true;
            obs.events = &store;
            engine.attachObservers(obs);
        }
        Outcome o = outcomeOf(engine.run(p.warmup, p.measure));
        if (p.observe)
            putStore(o, store);
        return o;
    };
    if (p.engine == EngineKind::Trace) {
        TraceEngine engine(p.cfg, *p.prog, p.exec,
                           makePrefetcher(p.kind, p.cfg, p.unbounded));
        return run(engine);
    }
    CycleEngine engine(p.cfg, *p.prog, p.exec, p.kind);
    return run(engine);
}

// ------------------------------------------------- workload plans

/** A workload's programs, points and layer-specific work. */
struct Plan
{
    std::vector<Point> points;
    std::vector<Scenario> scenarios;
    std::optional<SweepManifest> manifest;
    RunOptions sweepBase;
    const ExperimentSpec *sweepSpec = nullptr;
};

InstCount
pick(InstCount override_value, InstCount dflt)
{
    return override_value != 0 ? override_value : dflt;
}

/** The CLI's sweep-sab grid, as `pifetch sweep` writes its manifest. */
SweepManifest
sweepSabManifest(const Options &opt)
{
    SweepManifest m;
    m.experiment = "fig10-coverage";
    m.axes.push_back(SweepAxis{"pif.numSabs", {"1", "2", "4", "8"}});
    m.axes.push_back(SweepAxis{"pif.sabWindowRegions", {"3", "7"}});
    m.shards = 4;
    m.workloads.push_back(SweepWorkloadRef{"db2", false});
    m.overrides.emplace_back("seed", std::to_string(opt.seed));
    if (opt.warmup)
        m.warmup = opt.warmup;
    if (opt.measure)
        m.measure = opt.measure;
    return m;
}

/**
 * Build the workload's points. @p timeBuild receives every program
 * construction (and scenario derivation) so set-up can be timed
 * around exactly those calls.
 */
Plan
buildPlan(const Options &opt,
          const std::function<void(const std::function<void()> &)>
              &timeBuild)
{
    Plan plan;
    SystemConfig cfg;
    cfg.seed = opt.seed;

    auto budgetOf = [&](const char *experiment) {
        const ExperimentSpec *spec = findExperiment(experiment);
        if (!spec)
            panic(std::string("pifbench: no experiment ") + experiment);
        ExperimentBudget b = spec->defaultBudget;
        b.warmup = pick(opt.warmup, b.warmup);
        b.measure = pick(opt.measure, b.measure);
        return std::make_pair(spec, b);
    };

    if (opt.workload == "history-db2") {
        // fig9-history's history-size axis (runFig9RightBody).
        const auto [spec, budget] = budgetOf("fig9-history");
        (void)spec;
        const WorkloadRef w(ServerWorkload::OltpDb2);
        std::shared_ptr<const Program> prog;
        timeBuild([&] {
            prog = std::make_shared<const Program>(w.buildProgram());
        });
        for (std::uint64_t regions :
             {2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024}) {
            Point p;
            p.label = "db2/pif/history=" + std::to_string(regions);
            p.prog = prog;
            p.exec = w.executorConfig();
            p.cfg = cfg;
            p.cfg.pif.historyRegions = regions;
            p.kind = PrefetcherKind::Pif;
            p.warmup = budget.warmup;
            p.measure = budget.measure;
            plan.points.push_back(std::move(p));
        }
    } else if (opt.workload == "speedup-all") {
        // fig10-speedup over its default workloads (runFig10Speedup).
        const auto [spec, budget] = budgetOf("fig10-speedup");
        for (const WorkloadRef &w : spec->defaultWorkloads) {
            std::shared_ptr<const Program> prog;
            timeBuild([&] {
                prog = std::make_shared<const Program>(w.buildProgram());
            });
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::NextLine,
                  PrefetcherKind::Tifs, PrefetcherKind::Pif,
                  PrefetcherKind::Perfect}) {
                Point p;
                p.label = w.key() + "/" + prefetcherKey(k);
                p.engine = EngineKind::Cycle;
                p.prog = prog;
                p.exec = w.executorConfig();
                p.cfg = cfg;
                p.kind = k;
                p.warmup = budget.warmup;
                p.measure = budget.measure;
                plan.points.push_back(std::move(p));
            }
        }
    } else if (opt.workload == "check-fuzz") {
        // runScenario's step-1 differential runs, one pair per seed.
        for (unsigned i = 0; i < opt.checkSeeds; ++i) {
            Scenario sc;
            std::shared_ptr<const Program> prog;
            ExecutorConfig exec;
            timeBuild([&] {
                sc = scenarioFromSeed(opt.seed + i);
                if (sc.spec) {
                    const LoweredWorkload lw = lowerWorkloadSpec(*sc.spec);
                    prog = std::make_shared<const Program>(lw.build());
                    exec = executorConfigFor(lw);
                } else {
                    prog = std::make_shared<const Program>(
                        WorkloadGenerator::build(sc.params));
                    exec = executorConfigFor(sc.params);
                }
            });
            for (EngineKind e : {EngineKind::Trace, EngineKind::Cycle}) {
                Point p;
                p.label = "scenario-" + std::to_string(sc.seed) + "/" +
                          prefetcherKey(sc.kind) +
                          (e == EngineKind::Trace ? "/trace" : "/cycle");
                p.engine = e;
                p.prog = prog;
                p.exec = exec;
                p.cfg = sc.cfg;
                p.kind = sc.kind;
                p.warmup = sc.warmup;
                p.measure = sc.measure;
                p.observe = true;
                plan.points.push_back(std::move(p));
            }
            plan.scenarios.push_back(std::move(sc));
        }
    } else if (opt.workload == "sweep-sab") {
        // fig10-coverage per grid point (runSweepPoint ->
        // runFig10Coverage), prefetchers without storage limits.
        SweepManifest m = sweepSabManifest(opt);
        plan.sweepSpec = findExperiment(m.experiment);
        std::string err;
        const auto base = sweepBaseOptions(*plan.sweepSpec, m, &err);
        if (!base)
            panic("pifbench: " + err);
        plan.sweepBase = *base;
        const ExperimentBudget budget =
            base->budget ? *base->budget : plan.sweepSpec->defaultBudget;
        for (std::uint64_t gp = 0; gp < sweepPointCount(m); ++gp) {
            SystemConfig pcfg = base->cfg;
            pcfg.threads = 1;
            std::string tag;
            for (const auto &[key, value] : sweepPointParams(m, gp)) {
                applyConfigOverride(pcfg, key, value);
                tag += "/" + key + "=" + value;
            }
            for (const WorkloadRef &w : base->workloads) {
                std::shared_ptr<const Program> prog;
                timeBuild([&] {
                    prog =
                        std::make_shared<const Program>(w.buildProgram());
                });
                for (PrefetcherKind k :
                     {PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Tifs, PrefetcherKind::Pif}) {
                    Point p;
                    p.label = w.key() + tag + "/" + prefetcherKey(k);
                    p.prog = prog;
                    p.exec = w.executorConfig();
                    p.cfg = pcfg;
                    p.kind = k;
                    p.unbounded = true;
                    p.warmup = budget.warmup;
                    p.measure = budget.measure;
                    plan.points.push_back(std::move(p));
                }
            }
        }
        plan.manifest = std::move(m);
    } else {
        panic("pifbench: unknown workload '" + opt.workload + "'");
    }
    return plan;
}

// ------------------------------------------------- parallel tasks

/** Spawn @p argv and wait for it. @return the exit status. */
int
spawnWait(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, args[0], nullptr, nullptr, args.data(),
                    environ) != 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return status;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            o += ' ';
        } else {
            o += c;
        }
    }
    return o;
}

// ------------------------------------------------- spawn mode

pid_t spawnedPid = 0;

void
killSpawned(int)
{
    if (spawnedPid > 0)
        kill(spawnedPid, SIGKILL);
}

/**
 * Run @p argv and print its wall time and rusage. Peak RSS survives
 * exec, so a child spawned straight from a large parent (the Python
 * runner) would report the parent's RSS; spawned from this small
 * process it reports its own. Killed after @p timeout_s seconds.
 */
int
runSpawn(const std::vector<std::string> &argv, unsigned timeout_s)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    std::signal(SIGALRM, killSpawned);
    const std::int64_t t0 = nowNs();
    if (posix_spawnp(&spawnedPid, args[0], nullptr, nullptr, args.data(),
                     environ) != 0) {
        std::fprintf(stderr, "pifbench: cannot spawn %s\n", args[0]);
        return 1;
    }
    alarm(timeout_s);
    int status = 0;
    struct rusage ru{};
    while (wait4(spawnedPid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return 1;
    }
    const std::int64_t t1 = nowNs();
    alarm(0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    const double cpu =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
            1e-6;
    std::printf("{\"exit\": %d, \"wall_s\": %.9f, \"cpu_s\": %.6f, "
                "\"maxrss_kib\": %ld}\n",
                code, static_cast<double>(t1 - t0) * 1e-9, cpu,
                ru.ru_maxrss);
    return 0;
}

// ------------------------------------------------- setup mode

int
runSetup(const Options &opt)
{
    std::vector<double> reps;
    std::size_t points = 0;
    InstCount nominal = 0;
    const std::int64_t start = nowNs();
    const std::int64_t budget = setupRepNs;
    while (reps.size() < 3 ||
           (nowNs() - start < budget && reps.size() < 101)) {
        std::int64_t ns = 0;
        const Plan plan = buildPlan(opt, [&](const auto &build) {
            const std::int64_t t0 = nowNs();
            build();
            ns += nowNs() - t0;
        });
        points = plan.points.size();
        nominal = 0;
        for (const Point &p : plan.points)
            nominal += p.warmup + p.measure;
        for (const Point &p : plan.points) {
            // Construction only: the engine is destroyed untimed.
            if (p.engine == EngineKind::Trace) {
                const std::int64_t t0 = nowNs();
                auto e = std::make_unique<TraceEngine>(
                    p.cfg, *p.prog, p.exec,
                    makePrefetcher(p.kind, p.cfg, p.unbounded));
                ns += nowNs() - t0;
            } else {
                const std::int64_t t0 = nowNs();
                auto e = std::make_unique<CycleEngine>(p.cfg, *p.prog,
                                                       p.exec, p.kind);
                ns += nowNs() - t0;
            }
        }
        reps.push_back(static_cast<double>(ns) * 1e-9);
    }
    std::FILE *out = opt.out.empty() ? stdout
                                     : std::fopen(opt.out.c_str(), "w");
    if (!out)
        return 1;
    std::fprintf(out, "{\"ok\": true, \"setup_s\": %.9g, \"samples_s\": [",
                 median(reps));
    for (std::size_t i = 0; i < reps.size(); ++i)
        std::fprintf(out, "%s%.9g", i ? ", " : "", reps[i]);
    std::fprintf(out, "], \"points\": %zu, \"nominal_instrs\": %llu}\n",
                 points, static_cast<unsigned long long>(nominal));
    if (out != stdout)
        std::fclose(out);
    return 0;
}

// ------------------------------------------------- trace mode

/** Named metric values, in output order. */
using Metrics = std::vector<std::pair<std::string, double>>;

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Add @p s's counts and times into @p tot. */
void
addStats(PointStats &tot, const PointStats &s)
{
    tot.records += s.records;
    tot.steps += s.steps;
    tot.bulkInstrs += s.bulkInstrs;
    tot.fetchAccesses += s.fetchAccesses;
    tot.mispredicts += s.mispredicts;
    tot.cpFetches += s.cpFetches;
    tot.cpMisses += s.cpMisses;
    tot.prefetchProbes += s.prefetchProbes;
    tot.prefetchFills += s.prefetchFills;
    tot.cacheFills += s.cacheFills;
    tot.usefulPrefetches += s.usefulPrefetches;
    tot.l2Requests += s.l2Requests;
    tot.l2Hits += s.l2Hits;
    tot.l2Misses += s.l2Misses;
    tot.hookAccessCalls += s.hookAccessCalls;
    tot.hookRetireCalls += s.hookRetireCalls;
    tot.drainCalls += s.drainCalls;
    tot.issued += s.issued;
    tot.indexLookups += s.indexLookups;
    tot.indexHits += s.indexHits;
    tot.regionsRecorded += s.regionsRecorded;
    tot.sabAllocations += s.sabAllocations;
    tot.coverage += s.coverage;
    tot.pendingScanned += s.pendingScanned;
    tot.cycleInstrs += s.cycleInstrs;
    tot.cycles += s.cycles;
    tot.userInstrs += s.userInstrs;
    tot.fetchStallCycles += s.fetchStallCycles;
    tot.demandMisses += s.demandMisses;
    tot.latePrefetches += s.latePrefetches;
    tot.observedInstrs += s.observedInstrs;
    tot.slices += s.slices;
    tot.counterSamples += s.counterSamples;
    for (int k = 0; k < NumStages; ++k) {
        tot.stageNs[k] += s.stageNs[k];
        tot.stageCalls[k] += s.stageCalls[k];
    }
    tot.sampledInstrs += s.sampledInstrs;
    tot.unsampledInstrs += s.unsampledInstrs;
    tot.sampledStepNs += s.sampledStepNs;
    tot.unsampledStepNs += s.unsampledStepNs;
    tot.tracedS += s.tracedS;
    tot.untracedS += s.untracedS;
}

/**
 * Replay every point, then run it through the engine untraced; the
 * two results must agree field for field.
 * @return the points' stats; @p engines receives the engine runs'
 * outcomes and @p mismatches counts failed points.
 */
std::vector<PointStats>
replayPoints(const Plan &plan, bool fault, Tracer &tr,
             std::vector<Outcome> &engines,
             std::vector<std::string> &errors, std::size_t &mismatches)
{
    std::vector<PointStats> stats(plan.points.size());
    engines.assign(plan.points.size(), Outcome{});
    mismatches = 0;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const Point &p = plan.points[i];
        PointStats &st = stats[i];
        Outcome replay;
        const std::int64_t t0 = nowNs();
        {
            Scoped s(tr, SpanPoint);
            if (p.engine == EngineKind::Trace) {
                std::unique_ptr<TraceReplay> r;
                {
                    Scoped c(tr, SpanConstruct);
                    r = std::make_unique<TraceReplay>(
                        p, makePrefetcher(p.kind, p.cfg, p.unbounded));
                }
                replay = r->run(p, tr, st, fault);
            } else {
                std::unique_ptr<CycleReplay> r;
                {
                    Scoped c(tr, SpanConstruct);
                    r = std::make_unique<CycleReplay>(p);
                }
                replay = r->run(p, tr, st, fault);
            }
        }
        const std::int64_t t1 = nowNs();
        const Outcome &engine = engines[i] = engineRun(p);
        const std::int64_t t2 = nowNs();
        st.tracedS = static_cast<double>(t1 - t0) * 1e-9;
        st.untracedS = static_cast<double>(t2 - t1) * 1e-9;
        const std::vector<std::string> d = diffOutcomes(replay, engine);
        if (d.empty())
            continue;
        if (mismatches++ < 8)
            errors.push_back("fidelity: " + p.label + ": " + d.front() +
                             " (+" + std::to_string(d.size() - 1) +
                             " more)");
    }
    return stats;
}

/** check-fuzz: the oracle battery per scenario. @return its seconds. */
std::vector<double>
runOracles(const Plan &plan, Tracer &tr, std::vector<std::string> &errors)
{
    std::vector<double> seconds;
    for (const Scenario &sc : plan.scenarios) {
        const std::int64_t t0 = nowNs();
        std::size_t failures;
        {
            Scoped s(tr, SpanOracle);
            failures = runScenario(sc).size();
        }
        seconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        if (failures)
            errors.push_back("check: scenario seed " +
                             std::to_string(sc.seed) + " failed " +
                             std::to_string(failures) + " invariants");
    }
    return seconds;
}

struct SweepStats
{
    std::vector<ResultValue> pointDocs;
    std::vector<double> pointS;
    double spawnOverheadS = 0.0;
    double outputBytes = 0.0;
};

/**
 * sweep-sab: grid points in process, shards as child processes, then
 * the merge; every byte is compared with the CLI's sweep.
 */
SweepStats
runSweep(const Options &opt, const Plan &plan, Tracer &tr,
         std::vector<std::string> &errors)
{
    SweepStats out;
    const SweepManifest &m = *plan.manifest;
    const std::uint64_t n = sweepPointCount(m);
    std::vector<std::string> point_bytes(n);
    for (std::uint64_t p = 0; p < n; ++p) {
        const std::int64_t t0 = nowNs();
        ResultValue doc;
        {
            Scoped s(tr, SpanSweepPoint);
            doc = runSweepPoint(*plan.sweepSpec, plan.sweepBase, m, p);
        }
        out.pointS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        {
            Scoped s(tr, SpanSerialize);
            point_bytes[p] = toJson(doc, 2) + "\n";
        }
        out.pointDocs.push_back(std::move(doc));
    }

    const std::string dir = opt.workDir + "/sweep";
    std::string err;
    if (!initSweepDir(dir, m, &err))
        errors.push_back("sweep: " + err);
    if (readFile(sweepManifestPath(opt.sweepDir)) !=
        readFile(sweepManifestPath(dir)))
        errors.push_back("sweep: manifest differs from the CLI's");
    double shard_s = 0.0;
    for (unsigned k = 0; k < m.shards; ++k) {
        const std::int64_t t0 = nowNs();
        int status;
        {
            Scoped s(tr, SpanSweepShard);
            status = spawnWait({opt.pifetch, "sweep", "--dir", dir,
                                "--shard", std::to_string(k)});
        }
        shard_s += static_cast<double>(nowNs() - t0) * 1e-9;
        if (status != 0)
            errors.push_back("sweep: shard " + std::to_string(k) +
                             " exited with status " +
                             std::to_string(status));
    }
    double points_s = 0.0;
    for (double s : out.pointS)
        points_s += s;
    out.spawnOverheadS = (shard_s - points_s) / m.shards;

    for (std::uint64_t p = 0; p < n; ++p) {
        const std::string bytes = readFile(sweepPointPath(dir, m, p));
        out.outputBytes += static_cast<double>(bytes.size());
        if (bytes != point_bytes[p])
            errors.push_back("sweep: point " + std::to_string(p) +
                             " file differs from runSweepPoint");
    }
    std::optional<ResultValue> merged;
    {
        Scoped s(tr, SpanSweepMerge);
        merged = mergeShardedSweep(dir, m, &err);
    }
    if (!merged) {
        errors.push_back("sweep: merge failed: " + err);
        return out;
    }
    std::string bytes;
    {
        Scoped s(tr, SpanSerialize);
        bytes = toJson(*merged, 2) + "\n";
    }
    out.outputBytes += static_cast<double>(bytes.size());
    if (bytes != readFile(sweepMergedPath(opt.sweepDir)))
        errors.push_back("sweep: merged document differs from the CLI's");
    return out;
}

/** Serialize the command's own result documents; they must round-trip. */
void
roundTripDocs(const Options &opt, Tracer &tr,
              std::vector<std::string> &errors)
{
    for (const std::string &path : opt.docs) {
        const std::string bytes = readFile(path);
        std::string err;
        const auto doc = parseJson(bytes, &err);
        if (!doc) {
            errors.push_back("results: cannot parse " + path + ": " + err);
            continue;
        }
        std::string again;
        {
            Scoped s(tr, SpanSerialize);
            again = toJson(*doc, 2);
        }
        std::string trimmed = bytes;
        while (!trimmed.empty() && trimmed.back() == '\n')
            trimmed.pop_back();
        if (again != trimmed)
            errors.push_back("results: " + path + " does not round-trip");
    }
}

/** Host-time attribution of the traced sections. */
struct Attribution
{
    double selfNs[NumSpanNames] = {};
    double stageS[NumStages] = {};
    double clockNs = 0.0;
    double unattributedFrac = 0.0;
    double loopFrac = 0.0;
};

Attribution
attribute(const Tracer &tr, const PointStats &tot)
{
    Attribution at;
    // Span self times, by name (self = duration minus children).
    double root_ns = 0.0;
    const auto &sp = tr.spans();
    std::vector<double> child(sp.size(), 0.0);
    for (std::size_t i = 0; i < sp.size(); ++i) {
        const double d = static_cast<double>(sp[i].end - sp[i].start);
        if (sp[i].parent >= 0)
            child[sp[i].parent] += d;
        else
            root_ns += d;
    }
    for (std::size_t i = 0; i < sp.size(); ++i)
        at.selfNs[sp[i].name] +=
            static_cast<double>(sp[i].end - sp[i].start) - child[i];

    // Per-instruction stages. A timed call costs the loop two clock
    // reads and its interval holds about one, so the clock's cost per
    // read is half the sampled batches' excess over the unsampled
    // per-instruction rate, per timed call. Net of that, the sampled
    // intervals scale to all instructions.
    const double step_instrs =
        static_cast<double>(tot.sampledInstrs + tot.unsampledInstrs);
    const double unsampled_rate =
        ratio(static_cast<double>(tot.unsampledStepNs),
              static_cast<double>(tot.unsampledInstrs));
    const double step_est_ns =
        tot.unsampledInstrs ? unsampled_rate * step_instrs
                            : static_cast<double>(tot.sampledStepNs);
    std::uint64_t timed_calls = 0;
    for (int k = 0; k < NumStages; ++k)
        timed_calls += tot.stageCalls[k];
    const double excess_ns =
        static_cast<double>(tot.sampledStepNs) -
        unsampled_rate * static_cast<double>(tot.sampledInstrs);
    at.clockNs = std::max(
        0.0, ratio(excess_ns, 2.0 * static_cast<double>(timed_calls)));
    const double scale =
        ratio(step_instrs, static_cast<double>(tot.sampledInstrs));
    double stages_ns = 0.0;
    for (int k = 0; k < NumStages; ++k) {
        const double raw =
            static_cast<double>(tot.stageNs[k]) -
            at.clockNs * static_cast<double>(tot.stageCalls[k]);
        // Not clamped: a call cheaper than the estimate's resolution
        // may read slightly below zero, and the parts still add up.
        const double ns = raw * scale;
        stages_ns += ns;
        at.stageS[k] = ns * 1e-9;
    }
    // The untraced-equivalent wall of the traced sections.
    const double wall_ns = root_ns - (at.selfNs[SpanStep] - step_est_ns);
    const double named_ns =
        at.selfNs[SpanProgram] + at.selfNs[SpanConstruct] +
        at.selfNs[SpanDecode] + stages_ns + at.selfNs[SpanOracle] +
        at.selfNs[SpanSweepPoint] + at.selfNs[SpanSweepShard] +
        at.selfNs[SpanSweepMerge] + at.selfNs[SpanSerialize];
    // The engine loop's own work between the public calls (the batch
    // scan, record unpacking, FetchInfo assembly) is the sim layer's;
    // as a remainder it also absorbs the sampling error.
    const double loop_ns = step_est_ns - stages_ns;
    at.unattributedFrac = ratio(wall_ns - named_ns - loop_ns, wall_ns);
    at.loopFrac = ratio(loop_ns, wall_ns);
    return at;
}

double
u(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** The per-layer metrics of a traced run. */
Metrics
layerMetrics(const Plan &plan, const std::vector<PointStats> &stats,
             std::size_t mismatches, const std::vector<double> &scenario_s,
             const SweepStats &sweep, const Tracer &tr)
{
    // Totals in point order, so every count is deterministic.
    PointStats all, pif, cyc;
    std::vector<double> point_s;
    std::uint64_t pif_points = 0;
    for (const PointStats &s : stats) {
        addStats(all, s);
        if (s.isPif) {
            addStats(pif, s);
            ++pif_points;
        }
        if (s.isCycle)
            addStats(cyc, s);
        point_s.push_back(s.untracedS);
    }
    const Attribution at = attribute(tr, all);
    const double *self = at.selfNs;
    const double *stage = at.stageS;
    const double records = u(all.records);

    Metrics mx;
    auto add = [&](const char *k, double v) { mx.emplace_back(k, v); };
    add("trace.program_build_s", self[SpanProgram] * 1e-9);
    add("trace.records", records);
    add("trace.decode_s", self[SpanDecode] * 1e-9);
    add("trace.decode_ns_per_rec", ratio(self[SpanDecode], records));
    add("core.steps", u(all.steps));
    add("core.bulk_frac", ratio(u(all.bulkInstrs), records));
    add("core.fetch_accesses", u(all.fetchAccesses));
    add("core.mispredicts", u(all.mispredicts));
    add("core.step_s", stage[StFrontend]);
    add("cache.l1i_miss_ratio", ratio(u(all.cpMisses), u(all.cpFetches)));
    add("cache.prefetch_probes", u(all.prefetchProbes));
    add("cache.prefetch_fills", u(all.prefetchFills));
    add("cache.useful_prefetch_frac",
        ratio(u(all.usefulPrefetches), u(all.cacheFills)));
    add("cache.probe_fill_s", stage[StProbeFill]);
    add("cache.l2_requests", u(all.l2Requests));
    add("cache.l2_hit_ratio",
        ratio(u(all.l2Hits), u(all.l2Hits + all.l2Misses)));
    add("cache.hierarchy_s", stage[StHierarchy]);
    add("pif.fetch_access_calls", u(pif.hookAccessCalls));
    add("pif.retire_calls", u(pif.hookRetireCalls));
    add("pif.train_s", stage[StPifTrain]);
    add("pif.ns_per_access",
        ratio(stage[StPifTrain] * 1e9, u(pif.hookAccessCalls)));
    add("pif.index_lookups", u(pif.indexLookups));
    add("pif.index_hit_rate", ratio(u(pif.indexHits), u(pif.indexLookups)));
    add("pif.regions_recorded", u(pif.regionsRecorded));
    add("pif.sab_allocations", u(pif.sabAllocations));
    add("pif.drain_calls", u(pif.drainCalls));
    add("pif.drain_s", stage[StPifDrain]);
    add("pif.issued", u(pif.issued));
    add("pif.coverage", ratio(pif.coverage, u(pif_points)));
    add("prefetch.issued", u(all.issued - pif.issued));
    add("prefetch.train_s", stage[StPfTrain]);
    add("sim.cycle.timing_s", stage[StTiming]);
    add("sim.cycle.pending_scanned",
        ratio(u(cyc.pendingScanned), u(cyc.records)));
    add("sim.cycle.ready_fill_s", stage[StReadyFill]);
    add("sim.cycle.uipc", ratio(u(cyc.userInstrs), u(cyc.cycles)));
    add("sim.cycle.late_prefetch_frac",
        ratio(u(cyc.latePrefetches), u(cyc.demandMisses)));
    add("sim.cycle.fetch_stall_frac",
        ratio(u(cyc.fetchStallCycles), u(cyc.cycles)));
    add("sim.observe_s", stage[StObserve]);
    add("sim.observed_instrs", u(all.observedInstrs));
    add("sim.points", u(plan.points.size()));
    add("sim.point_p50_s", median(point_s));
    add("sim.point_max_s",
        point_s.empty() ? 0.0
                        : *std::max_element(point_s.begin(), point_s.end()));
    add("sim.unattributed_frac", at.unattributedFrac);
    add("sim.loop_frac", at.loopFrac);
    add("sim.clock_read_ns", at.clockNs);
    add("sim.trace_overhead_s", all.tracedS - all.untracedS);
    add("sim.traced_wall_s", all.tracedS);
    add("sim.untraced_wall_s", all.untracedS);
    add("query.slices_recorded", u(all.slices));
    add("query.counter_samples", u(all.counterSamples));
    add("query.record_s", stage[StRecord]);
    add("check.scenarios", u(plan.scenarios.size()));
    if (!scenario_s.empty()) {
        add("check.scenario_p50_s", median(scenario_s));
        // A percentile needs ten samples beyond it.
        if (scenario_s.size() >= 100) {
            std::vector<double> v = scenario_s;
            std::sort(v.begin(), v.end());
            add("check.scenario_p90_s", v[v.size() * 9 / 10]);
        }
        add("check.oracle_s", self[SpanOracle] * 1e-9);
    }
    add("sweep.points", u(sweep.pointS.size()));
    if (plan.manifest) {
        add("sweep.point_p50_s", median(sweep.pointS));
        add("sweep.spawn_overhead_s", sweep.spawnOverheadS);
        add("sweep.merge_s", self[SpanSweepMerge] * 1e-9);
    }
    add("sweep.output_bytes", sweep.outputBytes);
    add("results.serialize_s", self[SpanSerialize] * 1e-9);
    add("fidelity.points_checked", u(stats.size()));
    add("fidelity.mismatches", u(mismatches));
    return mx;
}

/** Rows of a result document's first table (nullptr if absent). */
const ResultValue *
firstTableRows(const ResultValue &doc)
{
    const ResultValue *tables = doc.find("tables");
    if (!tables || tables->size() == 0)
        return nullptr;
    return tables->at(0).find("rows");
}

/**
 * The replayed points must be the command's own: the engine outcomes
 * must give exactly the numbers in the command's result tables.
 */
void
checkCommandTables(const Options &opt, const Plan &plan,
                   const std::vector<Outcome> &engines,
                   const SweepStats &sweep,
                   std::vector<std::string> &errors)
{
    auto field = [&](std::size_t i, const char *k) {
        return engines[i].fields.at(k);
    };
    auto mismatch = [&](const std::string &what) {
        errors.push_back("points: " + what +
                         " differs from the command's result");
    };
    const bool run_workload =
        opt.workload == "history-db2" || opt.workload == "speedup-all";
    if (run_workload && !opt.docs.empty()) {
        std::string err;
        const auto doc = parseJson(readFile(opt.docs.at(0)), &err);
        const ResultValue *rows = doc ? firstTableRows(*doc) : nullptr;
        if (!rows) {
            errors.push_back("points: no result table to compare");
            return;
        }
        if (opt.workload == "history-db2") {
            // [history_regions, coverage] per point.
            if (rows->size() != plan.points.size())
                return mismatch("history-size axis");
            for (std::size_t i = 0; i < rows->size(); ++i) {
                const ResultValue &r = rows->at(i);
                if (r.at(0).number() !=
                        static_cast<double>(
                            plan.points[i].cfg.pif.historyRegions) ||
                    r.at(1).number() != field(i, "pifCoverage"))
                    mismatch(plan.points[i].label);
            }
            return;
        }
        // [group, workload, next_line, tifs, pif, perfect, baseline
        // uipc] per workload; five points per workload, None first.
        if (rows->size() * 5 != plan.points.size())
            return mismatch("workload set");
        for (std::size_t w = 0; w < rows->size(); ++w) {
            const ResultValue &r = rows->at(w);
            const double base = field(5 * w, "uipc");
            bool same = r.at(6).number() == base;
            for (std::size_t k = 1; k < 5; ++k)
                same = same && r.at(1 + k).number() ==
                                   field(5 * w + k, "uipc") / base;
            if (!same)
                mismatch(plan.points[5 * w].label);
        }
        return;
    }
    if (plan.manifest) {
        // Per grid point [group, workload, next_line, tifs, pif,
        // baseline_misses]; four points per grid point, None first.
        for (std::size_t g = 0; g < sweep.pointDocs.size(); ++g) {
            const ResultValue *rows = firstTableRows(sweep.pointDocs[g]);
            if (!rows || rows->size() != 1 ||
                4 * (g + 1) > plan.points.size())
                return mismatch("grid");
            const ResultValue &r = rows->at(0);
            const double base = field(4 * g, "misses");
            bool same = r.at(5).number() == base;
            for (std::size_t k = 1; k < 4; ++k) {
                const double cov =
                    base == 0.0 ? 0.0
                                : 1.0 - field(4 * g + k, "misses") / base;
                same = same && r.at(1 + k).number() == std::max(0.0, cov);
            }
            if (!same)
                mismatch(plan.points[4 * g].label);
        }
    }
}

void
writeSpans(const Tracer &tr, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "span\tname\tparent\tstart_ns\tend_ns\n");
    const auto &sp = tr.spans();
    for (std::size_t i = 0; i < sp.size(); ++i)
        std::fprintf(f, "%zu\t%s\t%d\t%lld\t%lld\n", i,
                     spanNames[sp[i].name], sp[i].parent,
                     static_cast<long long>(sp[i].start),
                     static_cast<long long>(sp[i].end));
    std::fclose(f);
}

int
runTrace(const Options &opt)
{
    std::vector<std::string> errors;
    Tracer tr;
    const Plan plan = buildPlan(opt, [&](const auto &build) {
        Scoped s(tr, SpanProgram);
        build();
    });

    std::size_t mismatches = 0;
    std::vector<Outcome> engines;
    const std::vector<PointStats> stats = replayPoints(
        plan, opt.fault == "drop-drain", tr, engines, errors, mismatches);
    const std::vector<double> scenario_s = runOracles(plan, tr, errors);
    const SweepStats sweep =
        plan.manifest ? runSweep(opt, plan, tr, errors) : SweepStats{};
    roundTripDocs(opt, tr, errors);
    checkCommandTables(opt, plan, engines, sweep, errors);
    const Metrics mx =
        layerMetrics(plan, stats, mismatches, scenario_s, sweep, tr);
    if (!opt.spans.empty())
        writeSpans(tr, opt.spans);

    std::FILE *out = opt.out.empty() ? stdout
                                     : std::fopen(opt.out.c_str(), "w");
    if (!out)
        return 1;
    std::fprintf(out, "{\"ok\": %s, \"errors\": [",
                 errors.empty() ? "true" : "false");
    for (std::size_t i = 0; i < errors.size(); ++i)
        std::fprintf(out, "%s\"%s\"", i ? ", " : "",
                     jsonEscape(errors[i]).c_str());
    std::fprintf(out, "], \"metrics\": {");
    for (std::size_t i = 0; i < mx.size(); ++i)
        std::fprintf(out, "%s\"%s\": %.17g", i ? ", " : "",
                     mx[i].first.c_str(), mx[i].second);
    std::fprintf(out, "}}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}

int
usage()
{
    std::fputs(
        "usage: pifbench_driver setup|trace --workload W [options]\n"
        "       pifbench_driver spawn TIMEOUT_S -- COMMAND [ARGS...]\n"
        "  --workload W      history-db2 | speedup-all | check-fuzz |\n"
        "                    sweep-sab\n"
        "  --seed N          workload seed (check-fuzz: first fuzz seed)\n"
        "  --check-seeds N   check-fuzz scenarios (default 50)\n"
        "  --warmup N / --measure N  budget overrides (self-tests)\n"
        "  --pifetch EXE     the pifetch CLI (sweep shards)\n"
        "  --sweep-dir D     the CLI's sharded sweep of the workload\n"
        "  --work-dir D      scratch directory for the driver's sweep\n"
        "  --doc FILE        a result document of the command\n"
        "                    (repeatable; serialized under a span)\n"
        "  --plant-fault drop-drain  drop one drain call's candidates\n"
        "                    per 8 batches (self-tests)\n"
        "  --out FILE        result JSON (default stdout)\n"
        "  --spans FILE      span dump (TSV)\n",
        stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "spawn") == 0) {
        std::uint64_t timeout = 0;
        if (argc < 5 || !parseU64Value(argv[2], timeout) ||
            std::strcmp(argv[3], "--") != 0)
            return usage();
        return runSpawn(std::vector<std::string>(argv + 4, argv + argc),
                        static_cast<unsigned>(timeout));
    }
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        const bool num = parseU64Value(v, n);
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed" && num) {
            opt.seed = n;
        } else if (a == "--check-seeds" && num && n > 0) {
            opt.checkSeeds = static_cast<unsigned>(n);
        } else if (a == "--warmup" && num) {
            opt.warmup = n;
        } else if (a == "--measure" && num) {
            opt.measure = n;
        } else if (a == "--pifetch") {
            opt.pifetch = v;
        } else if (a == "--sweep-dir") {
            opt.sweepDir = v;
        } else if (a == "--work-dir") {
            opt.workDir = v;
        } else if (a == "--doc") {
            opt.docs.push_back(v);
        } else if (a == "--plant-fault" && v == "drop-drain") {
            opt.fault = v;
        } else if (a == "--out") {
            opt.out = v;
        } else if (a == "--spans") {
            opt.spans = v;
        } else {
            return usage();
        }
    }
    if (opt.workload.empty())
        return usage();
    if (opt.workload == "sweep-sab" && opt.mode == "trace" &&
        (opt.pifetch.empty() || opt.sweepDir.empty() || opt.workDir.empty()))
        return usage();
    if (opt.mode == "setup")
        return runSetup(opt);
    if (opt.mode == "trace")
        return runTrace(opt);
    return usage();
}
