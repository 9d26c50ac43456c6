/**
 * @file
 * Sharded-sweep tests: partition determinism, manifest round-trips,
 * the crash/resume contract (a SIGKILLed shard resumes to a merged
 * tree byte-identical to an in-process sweep), journal-corruption
 * handling, the scheduler (runShardedSweep forks its workers inside
 * this binary), and the run counts of the sweep plan.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

#include "sweep/manifest.hh"
#include "sweep/runner.hh"

namespace pifetch {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    ASSERT_TRUE(os.good());
}

/** A 3x2x2 manifest over synthetic axes (no experiment needed). */
SweepManifest
gridManifest(unsigned shards)
{
    SweepManifest m;
    m.experiment = "fig10-coverage";
    m.axes = {{"pif.blocksBefore", {"1", "2", "3"}},
              {"pif.blocksAfter", {"2", "4"}},
              {"l1i.assoc", {"2", "4"}}};
    m.shards = shards;
    return m;
}

TEST(SweepPartition, ShardsTileTheGridExactlyOnce)
{
    const SweepManifest m = gridManifest(5);
    ASSERT_EQ(sweepPointCount(m), 12u);

    std::set<std::uint64_t> seen;
    for (unsigned k = 0; k < m.shards; ++k) {
        for (const std::uint64_t p : sweepShardPoints(m, k)) {
            EXPECT_EQ(sweepPointShard(p, m.shards), k);
            EXPECT_TRUE(seen.insert(p).second)
                << "point " << p << " owned by two shards";
        }
    }
    // Union over all shards is the full grid — nothing lost, nothing
    // duplicated, independent of the shard count.
    EXPECT_EQ(seen.size(), 12u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 11u);

    // One shard gets everything when shards == 1.
    SweepManifest one = gridManifest(1);
    EXPECT_EQ(sweepShardPoints(one, 0).size(), 12u);
}

TEST(SweepPartition, PointParamsEnumerateFirstAxisOutermost)
{
    const SweepManifest m = gridManifest(1);
    // Manual cartesian enumeration in the CLI's historical order.
    std::uint64_t p = 0;
    for (const std::string &a : m.axes[0].values) {
        for (const std::string &b : m.axes[1].values) {
            for (const std::string &c : m.axes[2].values) {
                const auto params = sweepPointParams(m, p);
                ASSERT_EQ(params.size(), 3u);
                EXPECT_EQ(params[0],
                          std::make_pair(std::string("pif.blocksBefore"),
                                         a)) << "point " << p;
                EXPECT_EQ(params[1],
                          std::make_pair(std::string("pif.blocksAfter"),
                                         b)) << "point " << p;
                EXPECT_EQ(params[2],
                          std::make_pair(std::string("l1i.assoc"), c))
                    << "point " << p;
                ++p;
            }
        }
    }
    EXPECT_EQ(p, sweepPointCount(m));
}

TEST(SweepManifestIo, CanonicalJsonRoundTrips)
{
    SweepManifest m = gridManifest(3);
    m.workloads = {{"db2", false}, {"specs/web.json", true}};
    m.overrides = {{"seed", "7"}, {"pif.numSabs", "12"}};
    m.warmup = 1000;
    m.measure = 5000;

    const std::string bytes = manifestJson(m);
    const auto doc = parseJson(bytes);
    ASSERT_TRUE(doc.has_value());
    std::string err;
    const auto back = manifestFromResult(*doc, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(manifestJson(*back), bytes);
    EXPECT_EQ(back->experiment, m.experiment);
    EXPECT_EQ(back->shards, 3u);
    ASSERT_EQ(back->axes.size(), 3u);
    EXPECT_EQ(back->axes[0].values, m.axes[0].values);
    ASSERT_EQ(back->workloads.size(), 2u);
    EXPECT_FALSE(back->workloads[0].isFile);
    EXPECT_TRUE(back->workloads[1].isFile);
    EXPECT_EQ(back->overrides, m.overrides);
    EXPECT_EQ(back->warmup, m.warmup);
    EXPECT_EQ(back->measure, m.measure);
}

TEST(SweepManifestIo, MalformedDocumentsAreRejected)
{
    const SweepManifest good = gridManifest(2);
    const auto mutate = [&](const std::function<void(ResultValue &)> &f) {
        ResultValue doc = manifestToResult(good);
        f(doc);
        std::string err;
        const auto parsed = manifestFromResult(doc, &err);
        EXPECT_FALSE(parsed.has_value());
        EXPECT_FALSE(err.empty());
        return err;
    };

    mutate([](ResultValue &d) { d.set("schema", "somebody-elses"); });
    mutate([](ResultValue &d) { d.set("shards", 0u); });
    // Advertised point count disagreeing with the axes.
    mutate([](ResultValue &d) { d.set("points", 999u); });
    mutate([](ResultValue &d) { d.set("axes", ResultValue::array()); });
    mutate([](ResultValue &d) { d.set("experiment", ""); });

    // Axis and override values are checked on load: known key, value
    // that parses, and a valid SystemConfig at every grid point.
    const auto rejects = [](const SweepManifest &m) {
        std::string err;
        EXPECT_FALSE(
            manifestFromResult(manifestToResult(m), &err).has_value());
        return err;
    };
    SweepManifest bad = good;
    bad.axes[2].values = {"2", "bogus"};
    EXPECT_NE(rejects(bad).find("l1i.assoc"), std::string::npos);
    bad.axes[2].values = {"2", "0"};
    EXPECT_NE(rejects(bad).find("l1i.assoc"), std::string::npos);
    bad = good;
    bad.axes[0].key = "no.such.key";
    EXPECT_NE(rejects(bad).find("no.such.key"), std::string::npos);
    bad = good;
    bad.overrides = {{"pif.numSabs", "0"}};
    EXPECT_NE(rejects(bad).find("pif.numSabs"), std::string::npos);
}

// ----------------------------------------- crash / resume / identity

class SweepShardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pifetch_sweep_shard_" +
               std::to_string(::getpid());
        std::filesystem::remove_all(dir_);

        // A real but tiny sweep: 4 points over PIF lookahead/lookback
        // on one workload, 2 shards (shard 0 owns points 0 and 2).
        m_.experiment = "fig10-coverage";
        m_.axes = {{"pif.blocksBefore", {"1", "2"}},
                   {"pif.blocksAfter", {"2", "4"}}};
        m_.shards = 2;
        m_.workloads = {{"db2", false}};
        m_.warmup = 400;
        m_.measure = 1500;
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    /** The sweep document an in-process `pifetch sweep` would emit. */
    std::string
    inProcessSweepJson()
    {
        const ExperimentSpec *spec = findExperiment(m_.experiment);
        EXPECT_NE(spec, nullptr);
        std::string err;
        const auto base = sweepBaseOptions(*spec, m_, &err);
        EXPECT_TRUE(base.has_value()) << err;
        std::vector<ResultValue> docs;
        for (std::uint64_t p = 0; p < sweepPointCount(m_); ++p)
            docs.push_back(runSweepPoint(*spec, *base, m_, p));
        return toJson(assembleSweepDoc(m_, std::move(docs)), 2);
    }

    std::string dir_;
    SweepManifest m_;
};

TEST_F(SweepShardTest, InProcessSweepMatchesMergedShardsAtAnyThreadCount)
{
    // Standalone workers, each simulating all of its own runs.
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 0, false, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 1, false, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    const std::string expected = toJson(*merged, 2);

    // The scheduler: shared runs simulated on 1 or 4 lanes, then
    // forked workers that start from them.
    for (const unsigned threads : {1u, 4u}) {
        std::filesystem::remove_all(dir_);
        ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
        ASSERT_TRUE(runShardedSweep(dir_, m_, threads, false, &err))
            << err;
        const auto scheduled = mergeShardedSweep(dir_, m_, &err);
        ASSERT_TRUE(scheduled.has_value()) << err;
        EXPECT_EQ(toJson(*scheduled, 2), expected) << threads << " threads";
    }

    const ExperimentSpec *spec = findExperiment(m_.experiment);
    ASSERT_NE(spec, nullptr);
    const auto base = sweepBaseOptions(*spec, m_, &err);
    ASSERT_TRUE(base.has_value()) << err;
    // 1 lane; 3 lanes (lane 0 runs points 0 and 3); one lane a point.
    for (const unsigned threads : {1u, 3u, 4u}) {
        EXPECT_EQ(toJson(runSweepInProcess(*spec, *base, m_, threads), 2),
                  expected)
            << threads << " threads";
    }
}

TEST_F(SweepShardTest, SchedulerReportsAKilledShardAndResumes)
{
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    const std::string expected = inProcessSweepJson();

    ::setenv("PIFETCH_SWEEP_KILL_AFTER", "1:1", 1);
    const bool ok = runShardedSweep(dir_, m_, 2, false, &err);
    ::unsetenv("PIFETCH_SWEEP_KILL_AFTER");
    ASSERT_FALSE(ok);
    EXPECT_NE(err.find("shard 1 did not complete"), std::string::npos)
        << err;
    EXPECT_NE(err.find("--resume"), std::string::npos) << err;
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 1),
              (std::vector<std::uint64_t>{1}));

    err.clear();
    ASSERT_TRUE(runShardedSweep(dir_, m_, 2, true, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(toJson(*merged, 2), expected);
}

/** The benchmark's SAB grid over fig10-coverage on db2, tiny budget. */
SweepManifest
sabManifest(unsigned shards)
{
    SweepManifest m;
    m.experiment = "fig10-coverage";
    m.workloads = {{"db2", false}};
    m.warmup = 400;
    m.measure = 1500;
    m.axes = {{"pif.numSabs", {"1", "2", "4", "8"}},
              {"pif.sabWindowRegions", {"3", "7"}}};
    m.shards = shards;
    return m;
}

/**
 * Plan @p owners' points of @p m, run them as the scheduler does (the
 * shared runs once, then each owner's points in order against a copy
 * of that memo), check that each count the plan gives is what ran,
 * and return the plan.
 */
SweepPlan
planAndRun(const SweepManifest &m,
           const std::vector<std::vector<std::uint64_t>> &owners)
{
    const ExperimentSpec *spec = findExperiment(m.experiment);
    std::string err;
    const auto base = sweepBaseOptions(*spec, m, &err);
    EXPECT_TRUE(base.has_value()) << err;
    const SweepPlan plan = planSweep(*spec, *base, m, owners);
    RunMemo shared;
    runStages({plan.shared}, 2, shared);
    EXPECT_EQ(shared.executed, plan.shared.size());
    EXPECT_EQ(plan.ownerRuns.size(), owners.size());
    for (std::size_t o = 0; o < owners.size(); ++o) {
        RunMemo memo = shared;
        for (const std::uint64_t p : owners[o])
            runSweepPoint(*spec, *base, m, p, memo);
        EXPECT_EQ(memo.executed - shared.executed, plan.ownerRuns[o])
            << "owner " << o;
        EXPECT_EQ(memo.executed + memo.reused - shared.executed,
                  4 * owners[o].size())
            << "owner " << o;
    }
    return plan;
}

TEST(SweepRunCounts, ShardsSimulateTheBaselinesOnce)
{
    // fig10-coverage's None, Next-Line and TIFS runs ignore pif.*, so
    // one shard simulates them once and PIF once per point.
    SweepManifest m = sabManifest(1);
    m.axes = {{"pif.numSabs", {"1", "2"}}};
    SweepPlan plan = planAndRun(m, pendingShardPoints("", m, false));
    EXPECT_TRUE(plan.shared.empty());
    EXPECT_EQ(plan.ownerRuns, (std::vector<std::uint64_t>{5}));

    // The benchmark's SAB grid in 4 shards: every shard needs the
    // baselines, so the scheduler simulates them once and each shard
    // only its two PIF points, 11 runs for 8 points.
    m = sabManifest(4);
    plan = planAndRun(m, pendingShardPoints("", m, false));
    EXPECT_EQ(plan.shared.size(), 3u);
    EXPECT_EQ(plan.ownerRuns, (std::vector<std::uint64_t>{2, 2, 2, 2}));
}

TEST_F(SweepShardTest, ResumePlansOnlyThePendingShards)
{
    m_ = sabManifest(4);
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    ASSERT_TRUE(runShardedSweep(dir_, m_, 4, false, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;

    // Only shard 3 left to run: no other shard shares its baselines,
    // so the scheduler simulates nothing and shard 3 all five runs.
    ASSERT_EQ(std::remove(sweepJournalPath(dir_, 3).c_str()), 0);
    const auto pending = pendingShardPoints(dir_, m_, true);
    EXPECT_EQ(pending, (std::vector<std::vector<std::uint64_t>>{
                           {}, {}, {}, {3, 7}}));
    const SweepPlan plan = planAndRun(m_, pending);
    EXPECT_TRUE(plan.shared.empty());
    EXPECT_EQ(plan.ownerRuns, (std::vector<std::uint64_t>{0, 0, 0, 5}));

    ASSERT_TRUE(runShardedSweep(dir_, m_, 4, true, &err)) << err;
    const auto resumed = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(toJson(*resumed, 2), toJson(*merged, 2));
}

TEST_F(SweepShardTest, KilledShardResumesToByteIdenticalMergedTree)
{
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    const std::string expected = inProcessSweepJson();

    // Run shard 0 in a child that SIGKILLs itself right after
    // journaling its first completed point — the crash contract's
    // worst case (death immediately after the journal fflush).
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("PIFETCH_SWEEP_KILL_AFTER", "0:1", 1);
        std::string child_err;
        runSweepShard(dir_, m_, 0, false, &child_err);
        ::_exit(2);  // unreachable when the kill hook fires
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "shard child exited instead of dying to the kill hook";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Exactly one point journaled; its point file bytes check out.
    const auto done = journaledCompletePoints(dir_, m_, 0);
    ASSERT_EQ(done, (std::vector<std::uint64_t>{0}));
    const std::string journal_after_crash =
        slurp(sweepJournalPath(dir_, 0));
    const std::string point0_after_crash =
        slurp(sweepPointPath(dir_, m_, 0));
    ASSERT_FALSE(point0_after_crash.empty());

    // Resume shard 0: the journaled point is skipped (the journal is
    // appended to, not rewritten), the missing point re-runs.
    ASSERT_TRUE(runSweepShard(dir_, m_, 0, true, &err)) << err;
    const std::string journal_after_resume =
        slurp(sweepJournalPath(dir_, 0));
    EXPECT_EQ(journal_after_resume.substr(0, journal_after_crash.size()),
              journal_after_crash);
    EXPECT_GT(journal_after_resume.size(), journal_after_crash.size());
    EXPECT_EQ(slurp(sweepPointPath(dir_, m_, 0)), point0_after_crash);
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{0, 2}));

    // Finish shard 1 and merge: byte-identical to the in-process sweep.
    ASSERT_TRUE(runSweepShard(dir_, m_, 1, false, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(toJson(*merged, 2), expected);
}

TEST_F(SweepShardTest, CorruptJournalAndPointFilesAreReRun)
{
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 0, false, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 1, false, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    const std::string expected = toJson(*merged, 2);
    const std::string journal = slurp(sweepJournalPath(dir_, 0));
    ASSERT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{0, 2}));

    // Garbage line, a torn (truncated) line, and a line claiming a
    // point shard 0 does not own: all ignored, valid entries kept.
    spit(sweepJournalPath(dir_, 0),
         journal + "not json at all\n" + "{\"point\":1,\"digest\":\"" +
             std::string(16, '0') + "\"}\n" +
             journal.substr(0, journal.size() / 2));
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{0, 2}));

    // A journal line whose digest no longer matches the point file's
    // bytes invalidates that point (and only that point).
    std::string tampered = journal;
    const std::size_t digest_at = tampered.find("\"digest\":\"");
    ASSERT_NE(digest_at, std::string::npos);
    const std::size_t hex0 = digest_at + 10;
    tampered[hex0] = tampered[hex0] == 'a' ? 'b' : 'a';
    spit(sweepJournalPath(dir_, 0), tampered);
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{2}));

    // Same when the journal is pristine but the point file's bytes
    // were corrupted after the fact.
    spit(sweepJournalPath(dir_, 0), journal);
    const std::string point0_path = sweepPointPath(dir_, m_, 0);
    const std::string point0 = slurp(point0_path);
    spit(point0_path, point0 + "trailing garbage");
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{2}));

    // A corrupt point file also fails the merge with an actionable
    // error naming the point, rather than merging garbage.
    spit(point0_path, "{broken");
    err.clear();
    EXPECT_FALSE(mergeShardedSweep(dir_, m_, &err).has_value());
    EXPECT_NE(err.find("point-0"), std::string::npos) << err;
    EXPECT_NE(err.find("--resume"), std::string::npos) << err;

    // Resume heals it: the invalid point re-runs, and the merged tree
    // is byte-identical to the pre-corruption document.
    ASSERT_TRUE(runSweepShard(dir_, m_, 0, true, &err)) << err;
    EXPECT_EQ(journaledCompletePoints(dir_, m_, 0),
              (std::vector<std::uint64_t>{0, 2}));
    const auto healed = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(healed.has_value()) << err;
    EXPECT_EQ(toJson(*healed, 2), expected);
}

TEST_F(SweepShardTest, MissingPointFileFailsMergeUntilResumed)
{
    std::string err;
    ASSERT_TRUE(initSweepDir(dir_, m_, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 0, false, &err)) << err;
    ASSERT_TRUE(runSweepShard(dir_, m_, 1, false, &err)) << err;
    const auto merged = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(merged.has_value()) << err;

    ASSERT_EQ(std::remove(sweepPointPath(dir_, m_, 3).c_str()), 0);
    err.clear();
    EXPECT_FALSE(mergeShardedSweep(dir_, m_, &err).has_value());
    EXPECT_NE(err.find("point 3"), std::string::npos) << err;

    ASSERT_TRUE(runSweepShard(dir_, m_, 1, true, &err)) << err;
    const auto healed = mergeShardedSweep(dir_, m_, &err);
    ASSERT_TRUE(healed.has_value()) << err;
    EXPECT_EQ(toJson(*healed, 2), toJson(*merged, 2));
}

} // namespace
} // namespace pifetch
