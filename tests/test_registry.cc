/**
 * @file
 * Experiment-registry tests: lookup, document shape, config
 * overrides, and the thread-count invariance the CLI and golden
 * suite rely on.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/registry.hh"

namespace pifetch {
namespace {

RunOptions
tinyOptions()
{
    RunOptions opts;
    ExperimentBudget b;
    b.warmup = 60'000;
    b.measure = 120'000;
    opts.budget = b;
    opts.workloads = {ServerWorkload::OltpDb2};
    return opts;
}

TEST(Registry, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const ExperimentSpec &spec : experimentRegistry()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.description.empty());
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate " << spec.name;
        EXPECT_EQ(findExperiment(spec.name), &spec);
        EXPECT_FALSE(spec.defaultWorkloads.empty());
        ASSERT_TRUE(static_cast<bool>(spec.points));
        ASSERT_TRUE(static_cast<bool>(spec.reduce));
    }
    EXPECT_EQ(findExperiment("no-such-experiment"), nullptr);
    // The paper's full evaluation: figures, the table, the ablation.
    for (const char *required :
         {"table1", "fig2-streams", "fig3-regions", "fig7-jumpdist",
          "fig8-offsets", "fig8-regionsize", "fig9-streamlen",
          "fig9-history", "fig10-coverage", "fig10-speedup",
          "ablation"}) {
        EXPECT_NE(findExperiment(required), nullptr) << required;
    }
}

TEST(Registry, DocumentHasTheConventionShape)
{
    const ExperimentSpec *spec = findExperiment("fig2-streams");
    ASSERT_NE(spec, nullptr);
    const ResultValue doc = runExperiment(*spec, tinyOptions());

    EXPECT_EQ(doc.find("experiment")->str(), "fig2-streams");
    EXPECT_FALSE(doc.find("description")->str().empty());
    const ResultValue *meta = doc.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("seed")->uintValue(), 42u);
    EXPECT_EQ(meta->find("warmup")->uintValue(), 60'000u);
    EXPECT_EQ(meta->find("measure")->uintValue(), 120'000u);
    EXPECT_GE(meta->find("threads")->uintValue(), 1u);
    EXPECT_FALSE(meta->find("git")->str().empty());
    ASSERT_NE(meta->find("config"), nullptr);
    EXPECT_EQ(meta->find("workloads")->at(0).str(), "db2");

    const ResultValue *tables = doc.find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_GT(tables->size(), 0u);
    const ResultValue &t = tables->at(0);
    ASSERT_NE(t.find("columns"), nullptr);
    const ResultValue *rows = t.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->size(), 1u);  // one selected workload
    EXPECT_EQ(rows->at(0).size(), t.find("columns")->size());
    EXPECT_EQ(rows->at(0).at(1).str(), "DB2");
}

TEST(Registry, AnalysisExperimentRunsFromMeasureBudget)
{
    const ExperimentSpec *spec = findExperiment("fig3-regions");
    ASSERT_NE(spec, nullptr);
    const ResultValue doc = runExperiment(*spec, tinyOptions());
    const ResultValue *tables = doc.find("tables");
    ASSERT_NE(tables, nullptr);
    EXPECT_EQ(tables->size(), 2u);  // density + groups
}

TEST(Registry, ResultsAreThreadCountInvariant)
{
    // Three lanes divide neither the 4- nor the 5-point Figure 10
    // stages (nor 10 or 25 points), so stages fan out unevenly.
    for (const ExperimentSpec &spec : experimentRegistry()) {
        RunOptions serial = tinyOptions();
        serial.workloads = {ServerWorkload::OltpDb2,
                            ServerWorkload::WebApache};
        serial.cfg.threads = 1;
        RunOptions pooled = serial;
        pooled.cfg.threads = 3;

        ResultValue a = runExperiment(spec, serial);
        ResultValue b = runExperiment(spec, pooled);
        // The resolved thread count is the only legitimate difference.
        a.find("meta")->set("threads", 0u);
        b.find("meta")->set("threads", 0u);
        EXPECT_EQ(toJson(a), toJson(b)) << spec.name;
    }
}

/** Options of the run-count tests: @p workloads at a small budget. */
RunOptions
countOptions(std::vector<WorkloadRef> workloads)
{
    RunOptions opts = tinyOptions();
    opts.budget->warmup = 20'000;
    opts.budget->measure = 40'000;
    opts.workloads = std::move(workloads);
    opts.cfg.threads = 3;
    return opts;
}

TEST(RunMemo, AblationSimulatesTheDefaultPifRunOnce)
{
    // Compactor depth 4, 4 SABs x 7 regions and separate trap levels
    // are all the default PIF configuration: 25 points, 23 runs.
    const ExperimentSpec *spec = findExperiment("ablation");
    ASSERT_NE(spec, nullptr);
    RunMemo memo;
    const ResultValue doc =
        runExperiment(*spec, countOptions({ServerWorkload::OltpDb2}), memo);
    EXPECT_EQ(memo.executed, 23u);
    EXPECT_EQ(memo.reused, 2u);
    EXPECT_EQ(memo.results.size(), 21u);  // the two shared studies: no key

    // The three default rows report the one run.
    const ResultValue &tables = *doc.find("tables");
    const ResultValue &depth4 = tables.at(0).find("rows")->at(2);
    const ResultValue &sab4x7 = tables.at(1).find("rows")->at(7);
    const ResultValue &separate = tables.at(2).find("rows")->at(1);
    EXPECT_EQ(depth4.at(0).uintValue(), 4u);
    EXPECT_EQ(sab4x7.at(0).uintValue(), 4u);
    EXPECT_EQ(sab4x7.at(1).uintValue(), 7u);
    EXPECT_EQ(toJson(depth4.at(1)), toJson(sab4x7.at(2)));
    EXPECT_EQ(toJson(depth4.at(1)), toJson(separate.at(1)));
}

TEST(RunMemo, Fig10SpeedupRepeatsNoRun)
{
    const ExperimentSpec *spec = findExperiment("fig10-speedup");
    ASSERT_NE(spec, nullptr);
    RunMemo memo;
    runExperiment(*spec, countOptions(spec->defaultWorkloads), memo);
    EXPECT_EQ(memo.executed, 30u);
    EXPECT_EQ(memo.reused, 0u);
}

TEST(RunMemo, CarriedMemoFoldsEveryRunOfARepeatedExperiment)
{
    const ExperimentSpec *spec = findExperiment("fig10-coverage");
    ASSERT_NE(spec, nullptr);
    const RunOptions opts = countOptions(
        {ServerWorkload::OltpDb2, ServerWorkload::WebApache});
    RunMemo memo;
    ResultValue first = runExperiment(*spec, opts, memo);
    EXPECT_EQ(memo.executed, 8u);
    EXPECT_EQ(memo.reused, 0u);
    ResultValue again = runExperiment(*spec, opts, memo);
    EXPECT_EQ(memo.executed, 8u);
    EXPECT_EQ(memo.reused, 8u);
    EXPECT_EQ(toJson(*first.find("tables")), toJson(*again.find("tables")));
}

TEST(ConfigOverrides, ApplyParseAndReject)
{
    SystemConfig cfg;
    EXPECT_TRUE(applyConfigOverride(cfg, "pif.historyRegions", "1024"));
    EXPECT_EQ(cfg.pif.historyRegions, 1024u);
    EXPECT_TRUE(applyConfigOverride(cfg, "seed", "0x10"));
    EXPECT_EQ(cfg.seed, 16u);
    EXPECT_TRUE(applyConfigOverride(cfg, "pif.separateTrapLevels",
                                    "off"));
    EXPECT_FALSE(cfg.pif.separateTrapLevels);
    // No simulation reads an interrupt-rate knob from the config (the
    // executor takes it from the workload), so there is no such key.
    EXPECT_FALSE(applyConfigOverride(cfg, "trap.perInstrProbability",
                                     "1e-4"));
    EXPECT_FALSE(applyConfigOverride(cfg, "trap.handlerCount", "12"));
    EXPECT_TRUE(applyConfigOverride(cfg, "nextLine.degree", "8"));
    EXPECT_EQ(cfg.nextLine.degree, 8u);

    EXPECT_FALSE(applyConfigOverride(cfg, "no.such.key", "1"));
    EXPECT_FALSE(applyConfigOverride(cfg, "seed", "notanumber"));
    EXPECT_FALSE(applyConfigOverride(cfg, "pif.separateTrapLevels",
                                     "maybe"));

    // Values must fit the field: a u64 never truncates into an
    // unsigned field.
    std::string err;
    EXPECT_FALSE(applyConfigOverride(cfg, "threads", "4294967297", &err));
    EXPECT_NE(err.find("threads"), std::string::npos) << err;
    EXPECT_EQ(cfg.threads, SystemConfig().threads);
    EXPECT_FALSE(applyConfigOverride(cfg, "l1i.assoc", "4294967296"));
    EXPECT_TRUE(applyConfigOverride(cfg, "l1i.assoc", "4294967295"));
    EXPECT_EQ(cfg.l1i.assoc, 4294967295u);
    EXPECT_TRUE(applyConfigOverride(cfg, "pif.historyRegions",
                                    "4294967296"));
    EXPECT_EQ(cfg.pif.historyRegions, 4294967296u);
    EXPECT_FALSE(applyConfigOverride(cfg, "no.such.key", "1", &err));
    EXPECT_NE(err.find("no.such.key"), std::string::npos) << err;

    // Every advertised key accepts at least one sensible value.
    for (const std::string &key : configOverrideKeys()) {
        SystemConfig scratch;
        const bool ok = applyConfigOverride(scratch, key, "1") ||
                        applyConfigOverride(scratch, key, "true");
        EXPECT_TRUE(ok) << key;
    }
}

TEST(GoldenEntries, ReferenceRegisteredExperiments)
{
    ASSERT_FALSE(goldenSuite().empty());
    for (const GoldenEntry &e : goldenSuite()) {
        EXPECT_NE(findExperiment(e.experiment), nullptr)
            << e.experiment;
        ASSERT_TRUE(e.options.budget.has_value());
        EXPECT_LE(e.options.budget->measure, 1'000'000u);
        EXPECT_FALSE(e.options.workloads.empty());
    }
}

} // namespace
} // namespace pifetch
