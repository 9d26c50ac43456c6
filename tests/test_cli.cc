/**
 * @file
 * Contract tests for the `pifetch` command line, run against the
 * built binary: usage errors exit 2 with a message naming the option
 * or config key, hostile values are rejected before they reach the
 * simulator, `pifetch help` matches docs/cli.md, and a sweep pins
 * manifest.json bytes equal to a committed fixture, and `trace info`
 * reports a v1 file's header or names exactly what is wrong with it.
 *
 * CMake passes the binary's path as PIFETCH_CLI; without the examples
 * the suite is disabled.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/results.hh"
#include "trace/trace_io.hh"

#ifdef PIFETCH_CLI

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

struct CliResult
{
    int code = -1;
    std::string out;
    std::string err;
};

/** Run `pifetch args...`, capturing its exit code and output. */
CliResult
runCli(const std::vector<std::string> &args)
{
    const std::string base = ::testing::TempDir() + "pifetch_cli_" +
                             std::to_string(::getpid());
    const std::string out_path = base + ".out";
    const std::string err_path = base + ".err";
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int out = ::open(out_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err = ::open(err_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0 || ::dup2(out, 1) < 0 ||
            ::dup2(err, 2) < 0)
            ::_exit(126);
        std::vector<char *> argv = {const_cast<char *>(PIFETCH_CLI)};
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(PIFETCH_CLI, argv.data());
        ::_exit(127);
    }
    CliResult r;
    int status = 0;
    if (pid > 0 && ::waitpid(pid, &status, 0) == pid) {
        r.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
    }
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    std::filesystem::remove(out_path);
    std::filesystem::remove(err_path);
    return r;
}

struct Case
{
    std::vector<std::string> args;
    int code;
    std::string err;  //!< substring stderr must contain
};

void
expectCases(const std::vector<Case> &cases)
{
    for (const Case &c : cases) {
        std::string line;
        for (const std::string &a : c.args)
            line += " " + a;
        const CliResult r = runCli(c.args);
        EXPECT_EQ(r.code, c.code) << "pifetch" << line << "\n" << r.err;
        EXPECT_NE(r.err.find(c.err), std::string::npos)
            << "pifetch" << line << "\nstderr: " << r.err
            << "\nwant: " << c.err;
    }
}

/** @p args plus a tiny budget, so a case that would run stays fast. */
std::vector<std::string>
withTiny(std::vector<std::string> args)
{
    for (const char *a : {"--workload", "db2", "--warmup", "400",
                          "--measure", "1500", "--quiet"})
        args.push_back(a);
    return args;
}

TEST(Cli, EveryVerbRejectsUnknownOptionsAndMissingValues)
{
    expectCases({
        {{"list", "--bogus"}, 2, "unknown option '--bogus'"},
        {{"run", "fig2-streams", "--bogus"}, 2, "unknown option"},
        {{"run", "fig2-streams", "--seed"}, 2, "--seed needs a value"},
        {{"sweep", "fig10-coverage", "--bogus"}, 2, "unknown option"},
        {{"sweep", "fig10-coverage", "--param"}, 2,
         "--param needs a value"},
        {{"trace", "pack", "--bogus"}, 2, "unknown command"},
        {{"trace", "unpack", "--bogus"}, 2, "unknown command"},
        {{"trace", "info", "x.trace", "--bogus"}, 2, "unknown option"},
        {{"trace", "info", "x.trace", "--json"}, 2,
         "--json needs a value"},
        {{"golden", "fig2-streams", "--bogus"}, 2, "unknown option"},
        {{"perf", "--bogus"}, 2, "unknown option"},
        {{"perf", "--reps"}, 2, "--reps needs a value"},
        {{"check", "--bogus"}, 2, "unknown option"},
        {{"check", "--seeds"}, 2, "--seeds needs a value"},
        {{"query", "--bogus"}, 2, "unknown option"},
        {{"query", "--load"}, 2, "--load needs a value"},
        {{"lint", "--bogus"}, 2, "unknown option"},
        {{"lint", "--rule"}, 2, "--rule needs a value"},
        {{"frob"}, 2, "unknown command 'frob'"},
    });
}

TEST(Cli, HostileValuesExit2NamingTheKey)
{
    expectCases({
        {withTiny({"run", "fig2-streams", "--set", "l1i.assoc=0"}), 2,
         "l1i.assoc"},
        {withTiny({"run", "fig10-speedup", "--set", "pif.numSabs=0"}), 2,
         "pif.numSabs"},
        {withTiny({"run", "fig10-speedup", "--set",
                   "core.dispatchWidth=0"}),
         2, "core.dispatchWidth"},
        {withTiny({"run", "fig10-speedup", "--set", "core.robEntries=0"}),
         2, "core.robEntries"},
        {withTiny({"run", "fig10-speedup", "--set",
                   "core.retireWidth=0"}),
         2, "core.retireWidth"},
        {withTiny({"run", "fig10-speedup", "--set",
                   "trap.perInstrProbability=2"}),
         2, "trap.perInstrProbability"},
        {withTiny({"run", "fig10-speedup", "--set",
                   "trap.perInstrProbability=nan"}),
         2, "trap.perInstrProbability"},
        {withTiny({"run", "fig10-speedup", "--set",
                   "threads=4294967297"}),
         2, "threads"},
        {withTiny({"run", "fig10-speedup", "--set", "no.such.key=1"}), 2,
         "no.such.key"},
        {withTiny({"run", "fig10-speedup", "--threads", "4294967296"}), 2,
         "--threads"},
        {withTiny({"run", "fig10-speedup", "--threads", "257"}), 2,
         "--threads"},
        {withTiny({"sweep", "fig10-coverage", "--threads", "257",
                   "--param", "pif.numSabs=1"}),
         2, "--threads"},
        {withTiny({"sweep", "fig10-coverage", "--param",
                   "pif.numSabs=1,bogus"}),
         2, "pif.numSabs"},
        {withTiny({"sweep", "fig10-coverage", "--param",
                   "pif.numSabs=1,0"}),
         2, "pif.numSabs"},
        {withTiny({"sweep", "fig10-coverage", "--param", "threads=1,2"}),
         2, "threads"},
        {withTiny({"query", "--set", "pif.numSabs=0", "--streams"}), 2,
         "pif.numSabs"},
        {{"check", "--seeds", "0"}, 2, "--seeds"},
        {{"check", "--seeds", "100001"}, 2, "--seeds"},
        {{"check", "--threads", "257"}, 2, "--threads"},
        {{"perf", "--reps", "0"}, 2, "--reps"},
        {{"perf", "--reps", "1001"}, 2, "--reps"},
    });
}

TEST(Cli, OneStructuredStreamOwnsStdout)
{
    expectCases({
        {withTiny({"run", "fig2-streams", "--json", "-", "--csv", "-"}),
         2, "stdout"},
        {{"perf", "--json", "-", "--csv", "-"}, 2, "stdout"},
        {withTiny({"query", "--dump", "-", "--json", "-", "--streams"}), 2,
         "stdout"},
    });
}

TEST(Cli, HelpIsWhatDocsCliShows)
{
    const CliResult help = runCli({"help"});
    ASSERT_EQ(help.code, 0) << help.err;
    ASSERT_FALSE(help.out.empty());
    const std::string doc = slurp(PIFETCH_SOURCE_DIR "/docs/cli.md");
    EXPECT_NE(doc.find(help.out), std::string::npos)
        << "docs/cli.md no longer shows `pifetch help`; paste:\n"
        << help.out;
    // Without a command the same text is a usage error on stderr.
    const CliResult bare = runCli({});
    EXPECT_EQ(bare.code, 2);
    EXPECT_EQ(bare.err, help.out);
}

/**
 * A sharded sweep pins manifest.json from the raw command line, in
 * argv order, byte for byte as tests/cli/sweep_manifest.json; a
 * hand-edited bogus axis value must then be rejected on load.
 */
TEST(Cli, SweepManifestBytesAreStable)
{
    const std::string dir = ::testing::TempDir() + "pifetch_cli_sweep_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const CliResult r = runCli(
        {"sweep", "fig10-coverage", "--workload", "db2", "--warmup", "400",
         "--measure", "1500", "--shards", "2", "--dir", dir, "--seed", "7",
         "--set", "pif.historyRegions=1024", "--param", "pif.numSabs=1,2",
         "--param", "pif.sabWindowRegions=3,7", "--threads", "2",
         "--quiet"});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string manifest = slurp(dir + "/manifest.json");
    EXPECT_EQ(manifest,
              slurp(PIFETCH_SOURCE_DIR "/tests/cli/sweep_manifest.json"));

    std::string edited = manifest;
    const std::string from = "\"values\": [\"1\", \"2\"]";
    const std::size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << manifest;
    edited.replace(at, from.size(), "\"values\": [\"1\", \"bogus\"]");
    {
        std::ofstream os(dir + "/manifest.json", std::ios::binary);
        os << edited;
    }
    expectCases({{{"sweep", "--dir", dir, "--shard", "0"}, 2,
                  "pif.numSabs"},
                 {{"sweep", "--dir", dir, "--merge"}, 2, "pif.numSabs"}});
    std::filesystem::remove_all(dir);
}

/** Write @p bytes verbatim to @p path. */
void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
}

/** A trace header: magic, @p version, @p count (little-endian). */
std::string
traceHeader(std::uint32_t version, std::uint64_t count)
{
    std::string h(16, '\0');
    const std::uint32_t magic = pifetch::traceMagic;
    std::memcpy(&h[0], &magic, 4);
    std::memcpy(&h[4], &version, 4);
    std::memcpy(&h[8], &count, 8);
    return h;
}

TEST(Cli, TraceInfoReportsAV1FileHeader)
{
    const std::string path = ::testing::TempDir() + "pifetch_cli_info_" +
                             std::to_string(::getpid()) + ".trace";
    std::vector<pifetch::RetiredInstr> records(1000);
    for (std::size_t i = 0; i < records.size(); ++i)
        records[i].pc = 0x1000 + 4 * i;
    ASSERT_TRUE(pifetch::writeTrace(path, records));

    const CliResult r = runCli({"trace", "info", path, "--json", "-"});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string err;
    const auto doc = pifetch::parseJson(r.out, &err);
    ASSERT_TRUE(doc) << err << "\n" << r.out;
    EXPECT_EQ(doc->find("format")->str(), "pifetch-trace-v1");
    EXPECT_EQ(doc->find("records")->number(), 1000.0);
    EXPECT_EQ(doc->find("fileBytes")->number(), 16.0 + 24.0 * 1000);
    EXPECT_DOUBLE_EQ(doc->find("bytesPerRecord")->number(),
                     (16.0 + 24.0 * 1000) / 1000);
    std::filesystem::remove(path);
}

TEST(Cli, TraceInfoNamesEachHeaderFault)
{
    const std::string base = ::testing::TempDir() + "pifetch_cli_bad_" +
                             std::to_string(::getpid());
    const std::string v1 = traceHeader(1, 0);
    spit(base + ".short", v1.substr(0, 10));
    spit(base + ".magic", "this is not a pifetch trace file");
    spit(base + ".v2", traceHeader(2, 3) + std::string(64, 'x'));
    spit(base + ".count", traceHeader(1, 5) + std::string(24, '\0'));
    expectCases({
        {{"trace", "info", base + ".missing"}, 1, "cannot open"},
        {{"trace", "info", base + ".short"}, 1,
         "truncated header (10 of 16 bytes)"},
        {{"trace", "info", base + ".magic"}, 1,
         "not a pifetch trace (bad magic)"},
        {{"trace", "info", base + ".v2"}, 1,
         "unsupported trace version 2 (this build reads v1)"},
        {{"trace", "info", base + ".count"}, 1,
         "header promises 5 records but the payload holds 1"},
    });
    for (const char *ext : {".short", ".magic", ".v2", ".count"})
        std::filesystem::remove(base + ext);
}

} // namespace

#endif // PIFETCH_CLI
