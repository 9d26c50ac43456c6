/**
 * @file
 * Experiment invariants (cheap versions of every figure), checked on
 * the registry's result documents.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/registry.hh"

namespace pifetch {
namespace {

/** Run @p experiment on DB2 alone and return its document. */
ResultValue
runOnDb2(const char *experiment, InstCount warmup = 300'000,
         InstCount measure = 700'000)
{
    const ExperimentSpec *spec = findExperiment(experiment);
    if (!spec)
        panic(std::string("no experiment ") + experiment);
    RunOptions opts;
    opts.workloads = {ServerWorkload::OltpDb2};
    opts.budget = ExperimentBudget{warmup, measure};
    return runExperiment(*spec, opts);
}

/** Analysis-only studies make one pass of `measure` instructions. */
ResultValue
analyzeDb2(const char *experiment)
{
    return runOnDb2(experiment, 0, 500'000);
}

/** Table @p t of a document. */
const ResultValue &
table(const ResultValue &doc, std::size_t t = 0)
{
    return doc.find("tables")->at(t);
}

/** Row @p r of @p tab, cell under column @p column, as a number. */
double
cell(const ResultValue &tab, std::size_t r, const std::string &column)
{
    const ResultValue &cols = *tab.find("columns");
    for (std::size_t c = 0; c < cols.size(); ++c) {
        if (cols.at(c).str() == column)
            return tab.find("rows")->at(r).at(c).number();
    }
    ADD_FAILURE() << "no column " << column;
    return 0.0;
}

/** Number of rows of @p tab. */
std::size_t
rowCount(const ResultValue &tab)
{
    return tab.find("rows")->size();
}

TEST(Fig2, CoverageOrderingMatchesPaper)
{
    // The paper's Figure 2 story: retire-order streams beat access
    // streams beat miss streams, and trap-level separation adds a
    // little more.
    const ResultValue doc = runOnDb2("fig2-streams");
    const ResultValue &t = table(doc);
    ASSERT_EQ(rowCount(t), 1u);
    const double miss = cell(t, 0, "miss");
    const double access = cell(t, 0, "access");
    const double retire = cell(t, 0, "retire");
    const double retire_sep = cell(t, 0, "retire_sep");
    EXPECT_GT(cell(t, 0, "correct_path_misses"), 1000.0);
    EXPECT_GT(retire_sep, miss);
    EXPECT_GE(retire_sep, retire - 0.002);
    EXPECT_GT(retire, access - 0.005);
    for (double c : {miss, access, retire, retire_sep}) {
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
    }
}

TEST(Fig3, FractionsFormDistribution)
{
    const ResultValue doc = analyzeDb2("fig3-regions");
    const ResultValue &density = table(doc, 0);
    const ResultValue &groups = table(doc, 1);
    EXPECT_GT(cell(density, 0, "regions"), 1000.0);
    // Columns: group, workload, one per range, regions.
    const ResultValue &row = density.find("rows")->at(0);
    double sum = 0.0;
    for (std::size_t c = 2; c + 1 < row.size(); ++c)
        sum += row.at(c).number();
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Section 3.1: more than half of the regions reference more than
    // one block.
    EXPECT_LT(row.at(2).number(), 0.5);

    // Most regions are a single contiguous group; some discontinuous.
    const double one_group = groups.find("rows")->at(0).at(2).number();
    EXPECT_GT(one_group, 0.5);
    EXPECT_GT(1.0 - one_group, 0.02);
}

TEST(Fig7, JumpDistancesSpreadAcrossScales)
{
    const ResultValue doc = analyzeDb2("fig7-jumpdist");
    const ResultValue &t = table(doc);
    // One row per log2 bucket up to the highest non-empty one: jumps
    // must not all be short (the paper's deep-history argument).
    ASSERT_GT(rowCount(t), 11u);
    EXPECT_GT(cell(t, rowCount(t) - 1, "DB2"), 0.0);
    EXPECT_LT(cell(t, 8, "DB2"), 0.9);
}

TEST(Fig8Left, NeighbourAccessesSkewForward)
{
    const ResultValue doc = analyzeDb2("fig8-offsets");
    const ResultValue &t = table(doc);
    const auto fraction = [&](int off) {
        // Rows run -4..+12 without the trigger itself.
        const std::size_t r = static_cast<std::size_t>(
            off < 0 ? off + 4 : off + 3);
        EXPECT_EQ(t.find("rows")->at(r).at(0).intValue(), off);
        return cell(t, r, "OLTP");
    };
    // Succeeding blocks dominate preceding ones (Section 5.2)...
    double before = 0.0;
    double after = 0.0;
    for (int off = -4; off <= -1; ++off)
        before += fraction(off);
    for (int off = 1; off <= 12; ++off)
        after += fraction(off);
    EXPECT_GT(after, before);
    // ...but backward accesses occur with significant frequency.
    EXPECT_GT(before, 0.02);
    // Frequency decays with forward distance.
    EXPECT_GT(fraction(1), fraction(8));
}

TEST(Fig8Right, CoverageGrowsWithRegionSize)
{
    const ResultValue doc = runOnDb2("fig8-regionsize");
    const ResultValue &t = table(doc);
    ASSERT_EQ(rowCount(t), 2u);  // TL0, TL1
    // 8-block regions beat single-block regions at TL0.
    EXPECT_GT(cell(t, 0, "r8"), cell(t, 0, "r1"));
    for (std::size_t tl = 0; tl < 2; ++tl) {
        for (const char *size : {"r1", "r2", "r4", "r6", "r8"}) {
            EXPECT_GE(cell(t, tl, size), 0.0);
            EXPECT_LE(cell(t, tl, size), 1.0);
        }
    }
}

TEST(Fig9Left, LongStreamsContribute)
{
    const ResultValue doc = analyzeDb2("fig9-streamlen");
    const ResultValue &t = table(doc);
    ASSERT_GT(rowCount(t), 5u);
    EXPECT_GT(cell(t, rowCount(t) - 1, "DB2"), 0.0);
    // Streams longer than 32 regions contribute meaningfully
    // (Section 5.3's medium/long stream argument).
    EXPECT_LT(cell(t, 5, "DB2"), 0.98);
}

TEST(Fig9Right, CoverageGrowsWithHistorySize)
{
    const ResultValue doc = runOnDb2("fig9-history");
    const ResultValue &t = table(doc);
    ASSERT_EQ(rowCount(t), 5u);  // 2K, 8K, 32K, 128K, 512K regions
    // Monotone within tolerance (Section 5.4) over 2K, 32K and 512K.
    EXPECT_GE(cell(t, 2, "DB2"), cell(t, 0, "DB2") - 0.01);
    EXPECT_GE(cell(t, 4, "DB2"), cell(t, 2, "DB2") - 0.01);
    EXPECT_GT(cell(t, 4, "DB2"), 0.7);
}

TEST(Fig10Coverage, PifWinsAndIsNearPerfect)
{
    const ResultValue doc = runOnDb2("fig10-coverage");
    const ResultValue &t = table(doc);
    ASSERT_EQ(rowCount(t), 1u);
    const double nl = cell(t, 0, "next_line");
    const double tifs = cell(t, 0, "tifs");
    const double pif = cell(t, 0, "pif");
    EXPECT_GT(pif, tifs);
    EXPECT_GT(pif, nl);
    EXPECT_GT(pif, 0.85);       // "nearly perfect coverage"
    EXPECT_GT(tifs, 0.4);       // TIFS well above zero...
    EXPECT_LT(tifs, pif - 0.03);  // ...but clearly below PIF
}

TEST(Fig10Speedup, OrderingAndPerfectBound)
{
    const ResultValue doc = runOnDb2("fig10-speedup");
    const ResultValue &t = table(doc);
    ASSERT_EQ(rowCount(t), 1u);
    const double pif = cell(t, 0, "pif");
    EXPECT_GT(cell(t, 0, "baseline_uipc"), 0.0);
    EXPECT_GT(pif, 1.05);
    EXPECT_GE(cell(t, 0, "perfect"), pif - 0.05);
    // One workload: the geometric mean is its own speedup.
    EXPECT_DOUBLE_EQ(cell(table(doc, 1), 0, "speedup"), pif);
}

} // namespace
} // namespace pifetch
