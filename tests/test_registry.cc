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
    EXPECT_TRUE(applyConfigOverride(cfg, "trap.perInstrProbability",
                                    "1e-4"));
    EXPECT_DOUBLE_EQ(cfg.trap.perInstrProbability, 1e-4);
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
