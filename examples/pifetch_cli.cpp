/**
 * @file
 * pifetch: the unified experiment CLI over the registry.
 *
 * Every verb declares its options once, as a table of rows (name,
 * value kind and range, one line of help, handler). One parser walks
 * argv through that table, and `pifetch help` prints the same tables,
 * so run `pifetch help` for the verbs and their options. The JSON
 * document layout and the exit codes (0 ok, 1 failure, 2 usage) are
 * documented in docs/cli.md and src/sim/registry.hh.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "lint/driver.hh"
#include "perf/kernels.hh"
#include "query/event_store.hh"
#include "query/query.hh"
#include "sim/cycle_engine.hh"
#include "sim/registry.hh"
#include "sim/system_config.hh"
#include "sim/trace_engine.hh"
#include "sweep/runner.hh"
#include "trace/trace_io.hh"

using namespace pifetch;

namespace {

// ------------------------------------------------------ option tables

/** How an option-table row takes its value. */
enum class Kind {
    Flag,  //!< no value
    Text,  //!< any string
    Uint,  //!< unsigned integer in [min, max]
    Out,   //!< output path; "-" is stdout, which one option may own
    Arg,   //!< one positional argument
    Args,  //!< any number of positional arguments
};

/** Apply a parsed value (@p n for Uint rows); "" or a diagnostic. */
using Handler =
    std::function<std::string(const std::string &value, std::uint64_t n)>;

/** One row of a verb's option table. */
struct Option
{
    std::string name;   //!< "--seed", or "<experiment>" for positionals
    Kind kind;
    std::string value;  //!< value placeholder in help ("N", "FILE|-")
    std::string help;   //!< one line
    Handler set;
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

constexpr std::uint64_t maxThreads = 256;  // resolveThreads' own cap

Option
flag(std::string name, std::string help, std::function<void()> f)
{
    return {std::move(name), Kind::Flag, "", std::move(help),
            [f](const std::string &, std::uint64_t) {
                f();
                return std::string();
            }};
}

Option
num(std::string name, std::string help,
    std::function<void(std::uint64_t)> f, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    return {std::move(name), Kind::Uint, "N", std::move(help),
            [f](const std::string &, std::uint64_t n) {
                f(n);
                return std::string();
            },
            min, max};
}

Option
text(std::string name, std::string value, std::string help,
     std::function<std::string(const std::string &)> f,
     Kind kind = Kind::Text)
{
    return {std::move(name), kind, std::move(value), std::move(help),
            [f](const std::string &v, std::uint64_t) { return f(v); }};
}

/** A text row that only stores its value. */
Option
path(std::string name, std::string value, std::string help,
     std::string &into, Kind kind = Kind::Text)
{
    return text(std::move(name), std::move(value), std::move(help),
                [&into](const std::string &v) {
                    into = v;
                    return std::string();
                },
                kind);
}

std::vector<Option>
concat(std::initializer_list<std::vector<Option>> parts)
{
    std::vector<Option> table;
    for (const std::vector<Option> &part : parts)
        table.insert(table.end(), part.begin(), part.end());
    return table;
}

/** " [lo..hi]" (or " [>= lo]") for a Uint row with a narrower range. */
std::string
rangeNote(const Option &o)
{
    const bool unbounded =
        o.max == std::numeric_limits<std::uint64_t>::max();
    if (o.kind != Kind::Uint || (o.min == 0 && unbounded))
        return "";
    if (unbounded)
        return " [>= " + std::to_string(o.min) + "]";
    return " [" + std::to_string(o.min) + ".." + std::to_string(o.max) +
           "]";
}

bool
positional(const Option &o)
{
    return o.kind == Kind::Arg || o.kind == Kind::Args;
}

/**
 * One verb's arguments, parsed against its option table. With @p help
 * set, parse() prints the table there instead of parsing.
 */
struct Cli
{
    std::string verb;
    std::string summary;
    std::vector<std::string> args;
    std::FILE *help = nullptr;
    /** (option or positional name, value) in argv order. */
    std::vector<std::pair<std::string, std::string>> seen{};
    int status = 2;

    /**
     * Walk args through @p table, calling each row's handler. False
     * means return status: 2 after a reported usage error, 0 after
     * printing help.
     */
    bool
    parse(const std::vector<Option> &table)
    {
        if (help) {
            printTable(table);
            status = 0;
            return false;
        }
        std::vector<const Option *> positionals;
        for (const Option &o : table) {
            if (positional(o))
                positionals.push_back(&o);
        }
        std::size_t next_positional = 0;
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            const Option *opt = nullptr;
            std::string value;
            std::uint64_t n = 0;
            if (arg.empty() || arg[0] != '-') {
                if (next_positional == positionals.size())
                    return fail("unexpected argument '" + arg + "'");
                opt = positionals[next_positional];
                if (opt->kind == Kind::Arg)
                    ++next_positional;
                value = arg;
            } else {
                for (const Option &o : table) {
                    if (!positional(o) && o.name == arg)
                        opt = &o;
                }
                if (!opt)
                    return fail("unknown option '" + arg + "'");
                if (opt->kind != Kind::Flag) {
                    if (i + 1 == args.size())
                        return fail(arg + " needs a value");
                    value = args[++i];
                }
                if (opt->kind == Kind::Uint &&
                    (!parseU64Value(value, n) || n < opt->min ||
                     n > opt->max)) {
                    return fail("bad value '" + value + "' for " + arg +
                                rangeNote(*opt));
                }
            }
            seen.emplace_back(opt->name, value);
            const std::string err = opt->set(value, n);
            if (!err.empty())
                return fail(err);
        }
        // Structured output streams must not interleave on stdout.
        std::string owner;
        for (const Option &o : table) {
            const auto *out = o.kind == Kind::Out ? given({o.name}) : nullptr;
            if (!out || out->second != "-")
                continue;
            if (!owner.empty())
                return fail(owner + " - and " + o.name + " - would both "
                            "write to stdout; send one to a file");
            owner = o.name;
        }
        return true;
    }

    /** Report "pifetch <verb>: msg" and return @p code. */
    int
    error(const std::string &msg, int code = 2) const
    {
        std::fprintf(stderr, "pifetch %s: %s\n", verb.c_str(),
                     msg.c_str());
        return code;
    }

    /** The last of @p names given, with its value; nullptr if none. */
    const std::pair<std::string, std::string> *
    given(std::initializer_list<std::string> names) const
    {
        const std::pair<std::string, std::string> *found = nullptr;
        for (const auto &entry : seen) {
            for (const std::string &name : names) {
                if (entry.first == name)
                    found = &entry;
            }
        }
        return found;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        error(msg);
        status = 2;
        return false;
    }

    void
    printTable(const std::vector<Option> &table) const
    {
        std::string synopsis = "pifetch " + verb;
        bool options = false;
        for (const Option &o : table) {
            if (positional(o))
                synopsis += " " + o.name;
            else
                options = true;
        }
        if (options)
            synopsis += " [options]";
        std::fprintf(help, "\n%s\n    %s\n", synopsis.c_str(),
                     summary.c_str());
        for (const Option &o : table) {
            const std::string left =
                o.value.empty() ? o.name : o.name + " " + o.value;
            std::fprintf(help, "  %-20s %s%s\n", left.c_str(),
                         o.help.c_str(), rangeNote(o).c_str());
        }
    }
};

// ------------------------------------------------ shared option rows

/** Write @p text to @p path, or stdout when path is "-". */
bool
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream os(path, std::ios::binary);
    os << text;
    os.close();
    if (!os) {
        std::fprintf(stderr, "pifetch: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** The --json/--csv/--quiet group and the report/output plumbing. */
struct Output
{
    std::string json;
    std::string csv;
    bool quiet = false;

    std::vector<Option>
    rows(bool with_csv = true, bool with_quiet = true)
    {
        std::vector<Option> out = {
            path("--json", "FILE|-",
                 "write the JSON document (- = stdout, no report)", json,
                 Kind::Out)};
        if (with_csv)
            out.push_back(path("--csv", "FILE|-",
                               "write the result tables as CSV", csv,
                               Kind::Out));
        if (with_quiet)
            out.push_back(flag("--quiet",
                               "suppress the human-readable report",
                               [this] { quiet = true; }));
        return out;
    }

    /** Human report wanted? Not when structured output owns stdout. */
    bool
    report() const
    {
        return !quiet && json != "-" && csv != "-";
    }

    /** Write @p doc to --json and --csv; false after an I/O error. */
    bool
    write(const ResultValue &doc) const
    {
        return (json.empty() || writeOutput(json, toJson(doc, 2) + "\n")) &&
               (csv.empty() || writeOutput(csv, toCsv(doc)));
    }
};

bool
emitOutputs(const Output &out, const ResultValue &doc)
{
    if (out.report())
        std::fputs(renderText(doc).c_str(), stdout);
    return out.write(doc);
}

/** --workload / --workload-file, each resolved into @p into. */
std::vector<Option>
workloadRows(std::vector<WorkloadRef> &into)
{
    const auto add = [&into](bool is_file) {
        return [&into, is_file](const std::string &v) {
            std::string err;
            if (auto w = resolveWorkload(v, is_file, &err))
                into.push_back(std::move(*w));
            return err;
        };
    };
    return {text("--workload", "W",
                 "server preset or zoo spec name (see `pifetch list`)",
                 add(false)),
            text("--workload-file", "F",
                 "JSON workload spec (docs/workloads.md)", add(true))};
}

/** --seed and `--set key=value` on @p cfg. */
std::vector<Option>
configRows(SystemConfig &cfg)
{
    return {num("--seed", "master seed (default 42)",
                [&cfg](std::uint64_t n) { cfg.seed = n; }),
            text("--set", "K=V",
                 "config override (repeatable; keys listed below)",
                 [&cfg](const std::string &kv) -> std::string {
                     const std::size_t eq = kv.find('=');
                     if (eq == std::string::npos)
                         return "--set expects key=value";
                     std::string err;
                     applyConfigOverride(cfg, kv.substr(0, eq),
                                         kv.substr(eq + 1), &err);
                     return err;
                 })};
}

/** State of the run/sweep option rows. */
struct RunArgs
{
    const ExperimentSpec *spec = nullptr;
    RunOptions run;
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;
    Output out;
};

std::vector<Option>
runRows(RunArgs &a)
{
    return concat(
        {{text("<experiment>", "", "registry name (see `pifetch list`)",
               [&a](const std::string &v) -> std::string {
                   a.spec = findExperiment(v);
                   if (!a.spec)
                       return "unknown experiment '" + v +
                              "' (try `pifetch list`)";
                   return "";
               },
               Kind::Arg)},
         workloadRows(a.run.workloads),
         {num("--threads", "worker threads (0 = auto / PIFETCH_THREADS)",
              [&a](std::uint64_t n) {
                  a.run.cfg.threads = static_cast<unsigned>(n);
              },
              0, maxThreads),
          num("--warmup", "warmup instructions",
              [&a](std::uint64_t n) { a.warmup = n; }),
          num("--measure", "measured instructions",
              [&a](std::uint64_t n) { a.measure = n; })},
         configRows(a.run.cfg), a.out.rows()});
}

// --------------------------------------------------------------- verbs

int
cmdList(Cli &cli)
{
    if (!cli.parse({}))
        return cli.status;
    std::printf("%-16s %s\n", "name", "description");
    for (const ExperimentSpec &spec : experimentRegistry())
        std::printf("%-16s %s\n", spec.name.c_str(),
                    spec.description.c_str());
    std::printf("\nworkloads (--workload):\n");
    for (ServerWorkload w : allServerWorkloads())
        std::printf("  %-22s %s (%s preset)\n", workloadKey(w).c_str(),
                    workloadName(w).c_str(), workloadGroup(w).c_str());
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    for (const WorkloadZooEntry &e : zoo)
        std::printf("  %-22s %s%s%s\n", e.key.c_str(), e.title.c_str(),
                    e.description.empty() ? "" : " -- ",
                    e.description.c_str());
    if (zoo.empty()) {
        std::printf("  (no zoo specs found under %s)\n",
                    workloadZooDir().c_str());
    }
    std::printf("\nconfig override keys (--set / --param):\n ");
    for (const std::string &k : configOverrideKeys())
        std::printf(" %s", k.c_str());
    std::printf("\n");
    return 0;
}

int
cmdRun(Cli &cli)
{
    RunArgs a;
    if (!cli.parse(runRows(a)))
        return cli.status;
    if (!a.spec)
        return cli.error("missing experiment name");
    if (!a.spec->usesConfig && cli.given({"--seed", "--set"})) {
        return cli.error("'" + a.spec->name + "' is an analysis-only "
                         "study; --seed/--set have no effect on it");
    }
    if (const auto bad = validateSystemConfig(a.run.cfg))
        return cli.error(*bad);
    // A lone --warmup or --measure adjusts one half of the
    // experiment's own budget without resetting the other.
    a.run.budget = a.spec->defaultBudget;
    a.run.budget->warmup = a.warmup.value_or(a.run.budget->warmup);
    a.run.budget->measure = a.measure.value_or(a.run.budget->measure);
    return emitOutputs(a.out, runExperiment(*a.spec, a.run)) ? 0 : 1;
}

/**
 * Emit a sweep document per the CLI options: per-point report, then
 * --json. With @p dir, `<dir>/merged.json` is written first.
 */
int
emitSweepDoc(const Output &out, const ResultValue &doc,
             const std::string &dir = "")
{
    if (!dir.empty() &&
        !writeOutput(sweepMergedPath(dir), toJson(doc, 2) + "\n"))
        return 1;
    const ResultValue *runs = doc.find("runs");
    for (std::size_t p = 0; out.report() && runs && p < runs->size();
         ++p) {
        std::printf("--- point %zu/%zu:", p + 1, runs->size());
        const ResultValue *params = runs->at(p).find("params");
        for (std::size_t j = 0; params && j < params->size(); ++j) {
            const auto &[key, value] = params->member(j);
            std::printf(" %s=%s", key.c_str(), value.str().c_str());
        }
        std::printf(" ---\n");
        if (const ResultValue *result = runs->at(p).find("result"))
            std::fputs(renderText(*result).c_str(), stdout);
    }
    if (!out.json.empty() &&
        !writeOutput(out.json, toJson(doc, 2) + "\n"))
        return 1;
    return 0;
}

/** Parse a `--param key=v1,v2,...` axis into @p grid. */
std::string
addAxis(std::vector<SweepAxis> &grid, const std::string &v)
{
    const std::size_t eq = v.find('=');
    if (eq == std::string::npos || eq + 1 == v.size())
        return "--param expects key=v1,v2,...";
    SweepAxis axis{v.substr(0, eq), {}};
    for (std::size_t from = eq + 1;;) {
        const std::size_t comma = v.find(',', from);
        axis.values.push_back(v.substr(from, comma - from));
        if (comma == std::string::npos)
            break;
        from = comma + 1;
    }
    grid.push_back(std::move(axis));
    return "";
}

int
cmdSweep(Cli &cli)
{
    RunArgs a;
    std::vector<SweepAxis> grid;
    std::string dir;
    std::optional<std::uint64_t> shards;
    std::optional<std::uint64_t> shard;
    bool resume = false;
    bool merge = false;
    const std::vector<Option> table = concat(
        {runRows(a),
         {text("--param", "K=V1,V2",
               "grid axis, one run per value (repeatable; axes multiply)",
               [&grid](const std::string &v) { return addAxis(grid, v); }),
          path("--dir", "D",
               "sweep directory: manifest, shard files, merged.json", dir),
          num("--shards", "partition the grid over N child processes",
              [&shards](std::uint64_t n) { shards = n; }, 1, 1u << 20),
          num("--shard", "worker mode: run shard N of the --dir manifest",
              [&shard](std::uint64_t n) { shard = n; }, 0,
              std::numeric_limits<unsigned>::max()),
          flag("--resume",
               "skip journaled-complete points (same command line)",
               [&resume] { resume = true; }),
          flag("--merge", "assemble merged.json from completed shards",
               [&merge] { merge = true; })}});
    if (!cli.parse(table))
        return cli.status;
    if ((shards || shard || merge) && dir.empty())
        return cli.error("--shards/--shard/--merge need --dir");

    std::string err;
    // Worker and merge modes: everything comes from the on-disk
    // manifest; only the shard ordinal (and --resume) arrive on the
    // command line.
    if (shard || merge) {
        for (const auto &entry : cli.seen) {
            if (shard && entry.first != "--dir" &&
                entry.first != "--shard" && entry.first != "--resume")
                return cli.error("--shard takes only --dir and --resume");
        }
        if (merge && (a.spec || !grid.empty()))
            return cli.error("--merge takes no experiment or --param");
        const auto m = loadManifest(sweepManifestPath(dir), &err);
        if (!m)
            return cli.error(err);
        if (shard) {
            return runSweepShard(dir, *m, static_cast<unsigned>(*shard),
                                 resume, &err)
                       ? 0
                       : cli.error(err, 1);
        }
        // Merge: assemble <dir>/merged.json from completed shards
        // without running anything.
        const auto doc = mergeShardedSweep(dir, *m, &err);
        if (!doc)
            return cli.error(err, 1);
        return emitSweepDoc(a.out, *doc, dir);
    }

    if (!a.spec)
        return cli.error("missing experiment name");
    if (grid.empty())
        return cli.error("need at least one --param");
    if (!a.spec->usesConfig) {
        // Every sweepable parameter is a config override, and this
        // runner never reads the config — the grid would rerun the
        // identical study labeled as varied.
        return cli.error("'" + a.spec->name + "' is an analysis-only "
                         "study that ignores configuration parameters");
    }
    if (!a.out.csv.empty())
        return cli.error("--csv is not supported; use --json");

    // The manifest pins the whole sweep from the raw command-line
    // values; in-process and sharded runs both execute through it
    // (runSweepPoint / assembleSweepDoc), so their documents agree
    // byte for byte.
    SweepManifest manifest;
    manifest.experiment = a.spec->name;
    manifest.axes = grid;
    manifest.shards = shards ? static_cast<unsigned>(*shards) : 1;
    for (const auto &[name, value] : cli.seen) {
        if (name == "--workload" || name == "--workload-file") {
            manifest.workloads.push_back(
                {value, name == "--workload-file"});
        } else if (name == "--seed") {
            manifest.overrides.emplace_back("seed", value);
        } else if (name == "--set") {
            const std::size_t eq = value.find('=');
            manifest.overrides.emplace_back(value.substr(0, eq),
                                            value.substr(eq + 1));
        }
    }
    manifest.warmup = a.warmup;
    manifest.measure = a.measure;
    // Every grid point is checked up front, so a typo fails before
    // hours of simulation.
    if (const auto bad = validateSweepConfig(manifest))
        return cli.error(*bad);

    if (shards) {
        if (resume) {
            // A resume must be the same sweep: the command line is
            // re-pinned and compared byte for byte against the
            // manifest the crashed run wrote.
            const auto on_disk =
                loadManifest(sweepManifestPath(dir), &err);
            if (!on_disk)
                return cli.error(err + " (run without --resume to start "
                                 "fresh)");
            if (manifestJson(*on_disk) != manifestJson(manifest)) {
                return cli.error(sweepManifestPath(dir) + " pins a "
                                 "different sweep than this command "
                                 "line; --resume needs the original "
                                 "arguments");
            }
        } else if (!initSweepDir(dir, manifest, &err)) {
            return cli.error(err, 1);
        }
        if (!runShardedSweep(dir, manifest, a.run.cfg.threads, resume,
                             &err))
            return cli.error(err, 1);
        const auto doc = mergeShardedSweep(dir, manifest, &err);
        if (!doc)
            return cli.error(err, 1);
        return emitSweepDoc(a.out, *doc, dir);
    }

    // In-process: grid points split over lanes, each point serial
    // inside (threads = 1) and each lane reusing its own engine runs.
    const auto base = sweepBaseOptions(*a.spec, manifest, &err);
    if (!base)
        return cli.error(err);
    return emitSweepDoc(a.out, runSweepInProcess(*a.spec, *base, manifest,
                                                 a.run.cfg.threads));
}

/** `pifetch trace info` document for one trace file. */
std::optional<ResultValue>
traceInfoDoc(const std::string &path, std::string *err)
{
    // The header count (validated against the file size at open) is
    // all info needs: no record is decoded.
    TraceBatchReader reader;
    if (!reader.open(path)) {
        *err = reader.error();
        return std::nullopt;
    }
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        *err = path + ": cannot stat";
        return std::nullopt;
    }
    const std::uint64_t records = reader.count();
    const auto bytes = static_cast<std::uint64_t>(st.st_size);
    ResultValue doc = ResultValue::object();
    doc.set("path", path);
    doc.set("format", "pifetch-trace-v1");
    doc.set("records", records);
    doc.set("fileBytes", bytes);
    if (records > 0)
        doc.set("bytesPerRecord", static_cast<double>(bytes) /
                                      static_cast<double>(records));
    return doc;
}

int
cmdTraceInfo(Cli &cli)
{
    std::string file;
    Output out;
    if (!cli.parse(concat({{path("<file>", "", "v1 trace file",
                                 file, Kind::Arg)},
                           out.rows(false, false)})))
        return cli.status;
    if (file.empty())
        return cli.error("missing file");
    std::string err;
    const auto doc = traceInfoDoc(file, &err);
    if (!doc)
        return cli.error(err, 1);
    if (out.json != "-") {
        for (std::size_t i = 0; i < doc->size(); ++i) {
            const auto &[key, value] = doc->member(i);
            std::printf("%-14s %s\n", key.c_str(),
                        toJson(value, 0).c_str());
        }
    }
    return out.write(*doc) ? 0 : 1;
}

int
cmdGolden(Cli &cli)
{
    bool list = false;
    std::string name;
    if (!cli.parse({path("<fixture>", "", "fixture to emit", name,
                         Kind::Arg),
                    flag("--list", "print the fixture names",
                         [&list] { list = true; })}))
        return cli.status;
    if (list) {
        for (const GoldenEntry &e : goldenSuite())
            std::printf("%s\n", goldenFixtureName(e).c_str());
        return 0;
    }
    if (name.empty())
        return cli.error("expected --list or a fixture name");
    for (const GoldenEntry &e : goldenSuite()) {
        if (goldenFixtureName(e) == name) {
            std::fputs(goldenJson(e).c_str(), stdout);
            return 0;
        }
    }
    return cli.error("'" + name + "' is not in the golden suite (see "
                     "--list)");
}

int
cmdPerf(Cli &cli)
{
    PerfOptions opts;
    Output out;
    bool list = false;
    const std::vector<Option> table = concat(
        {{flag("--list", "enumerate the kernels and exit",
               [&list] { list = true; }),
          text("--kernel", "K", "run only kernel K (repeatable)",
               [&opts](const std::string &v) -> std::string {
                   if (!findPerfKernel(v))
                       return "unknown kernel '" + v +
                              "' (try `pifetch perf --list`)";
                   opts.kernels.push_back(v);
                   return "";
               }),
          num("--reps", "timed repetitions per kernel (default 5)",
              [&opts](std::uint64_t n) {
                  opts.protocol.reps = static_cast<unsigned>(n);
              },
              1, 1000),
          num("--warmup-reps", "untimed repetitions first (default 1)",
              [&opts](std::uint64_t n) {
                  opts.protocol.warmupReps = static_cast<unsigned>(n);
              },
              0, 1000),
          text("--scale", "X", "op-count multiplier in (0, 1e6] (default 1)",
               [&opts](const std::string &v) -> std::string {
                   char *end = nullptr;
                   const double s = std::strtod(v.c_str(), &end);
                   // Finite and bounded: "inf"/1e300 would overflow the
                   // op counts (UB on the uint64 cast downstream).
                   if (*end != '\0' || !(s > 0.0) || !(s <= 1e6))
                       return "--scale must be a number in (0, 1e6]";
                   opts.scale = s;
                   return "";
               }),
          text("--workload", "W", "driving server preset (default db2)",
               [&opts](const std::string &v) -> std::string {
                   const std::optional<ServerWorkload> w =
                       workloadFromName(v);
                   if (!w)
                       return "unknown workload '" + v + "'";
                   opts.workload = *w;
                   return "";
               }),
          num("--seed", "stream-generation seed",
              [&opts](std::uint64_t n) { opts.seed = n; })},
         out.rows()});
    if (!cli.parse(table))
        return cli.status;
    if (list) {
        std::printf("%-20s %s\n", "kernel", "description");
        for (const PerfKernelSpec &k : perfKernels())
            std::printf("%-20s %s\n", k.name.c_str(),
                        k.description.c_str());
        return 0;
    }
    return emitOutputs(out, runPerfSuite(opts)) ? 0 : 1;
}

/** Print one failing scenario of a check report. */
void
printCheckFailure(const ScenarioReport &r)
{
    std::printf("FAIL seed %llu:\n",
                static_cast<unsigned long long>(r.scenario.seed));
    for (const CheckFailure &f : r.failures)
        std::printf("  [%s] %s\n", f.invariant.c_str(),
                    f.detail.c_str());
    if (r.shrunkValid) {
        std::printf("  shrunk in %u steps to: workload '%s', kind %s, "
                    "warmup %llu, measure %llu\n",
                    r.shrinkSteps, r.shrunk.params.name.c_str(),
                    prefetcherKey(r.shrunk.kind).c_str(),
                    static_cast<unsigned long long>(r.shrunk.warmup),
                    static_cast<unsigned long long>(r.shrunk.measure));
    }
}

int
cmdCheck(Cli &cli)
{
    CheckOptions opts;
    Output out;
    std::string repro_path = "pifetch-check-repro.json";
    std::string replay_path;
    std::optional<std::uint64_t> replay_seed;
    std::string faults;
    for (FaultInjection f : allFaultInjections())
        faults += (faults.empty() ? "" : "|") + faultKey(f);
    const std::vector<Option> table = concat(
        {{num("--seeds", "scenarios to fuzz (default 25)",
              [&opts](std::uint64_t n) {
                  opts.seeds = static_cast<unsigned>(n);
              },
              1, 100'000),
          num("--seed", "first fuzz seed (default 1)",
              [&opts](std::uint64_t n) { opts.baseSeed = n; }),
          num("--replay-seed", "run exactly one fuzz seed",
              [&replay_seed](std::uint64_t n) { replay_seed = n; }),
          path("--replay", "FILE", "run the scenario in a repro JSON file",
               replay_path),
          path("--repro", "FILE",
               "failing-scenario JSON (default pifetch-check-repro.json)",
               repro_path),
          num("--threads", "worker lanes over scenarios (0 = auto)",
              [&opts](std::uint64_t n) {
                  opts.threads = static_cast<unsigned>(n);
              },
              0, maxThreads),
          flag("--no-shrink", "keep failing scenarios unshrunk",
               [&opts] { opts.shrink = false; }),
          text("--inject-fault", "K", "deliberate break: " + faults,
               [&opts, &faults](const std::string &v) -> std::string {
                   const auto fault = faultFromKey(v);
                   if (!fault)
                       return "unknown fault '" + v + "' (known: " +
                              faults + ")";
                   opts.inject = *fault;
                   return "";
               }),
          text("--workload-file", "F",
               "run every fuzzed scenario over this JSON spec",
               [&opts](const std::string &v) {
                   std::string err;
                   if (auto spec = loadWorkloadSpecFile(v, &err))
                       opts.spec = std::make_shared<const WorkloadSpec>(
                           std::move(*spec));
                   return err;
               })},
         out.rows(false)});
    if (!cli.parse(table))
        return cli.status;
    const bool replaying = !replay_path.empty() || replay_seed;
    if (!replay_path.empty() && replay_seed)
        return cli.error("--replay and --replay-seed are mutually "
                         "exclusive");
    // Replay runs one scenario with its own workload and fan-out
    // shape; accepting-and-ignoring a fuzz option would let
    // "--replay x --seeds 100" report success for a sweep that never
    // ran.
    const auto *fuzz_only = cli.given({"--seeds", "--seed", "--threads",
                                       "--workload-file", "--no-shrink"});
    if (replaying && fuzz_only)
        return cli.error(fuzz_only->first + " has no effect in replay mode");
    if (!replay_path.empty()) {
        // Replaying must never clobber the repro being replayed (the
        // rewritten file would lose the shrunk scenario); only write
        // one when explicitly asked to, somewhere else.
        if (!cli.given({"--repro"}))
            repro_path.clear();
        else if (repro_path == replay_path)
            return cli.error("--repro would overwrite the --replay "
                             "input; pick another path");
    }

    CheckReport report;
    if (replaying) {
        // Replay mode: exactly one scenario, from a repro file or a
        // fuzz seed.
        std::optional<Scenario> scenario;
        if (replay_seed) {
            scenario = scenarioFromSeed(*replay_seed);
        } else {
            std::string err;
            const auto doc = loadJsonFile(replay_path, &err);
            if (doc && !(scenario = scenarioFromResult(*doc, &err)))
                err = replay_path + ": " + err;
            if (!scenario)
                return cli.error(err);
        }
        report.baseSeed = scenario->seed;
        report.seedsRun = 1;
        std::vector<CheckFailure> failures =
            runScenario(*scenario, opts.inject);
        if (!failures.empty()) {
            ScenarioReport entry;
            entry.scenario = *scenario;
            entry.failures = std::move(failures);
            entry.shrunk = *scenario;
            report.failures.push_back(std::move(entry));
        }
    } else {
        report = runCheck(opts);
    }

    const ResultValue doc = toResult(report);
    if (out.report()) {
        for (const ScenarioReport &r : report.failures)
            printCheckFailure(r);
        std::printf("check: %u scenario%s, %zu failed%s\n",
                    report.seedsRun, report.seedsRun == 1 ? "" : "s",
                    report.failures.size(),
                    report.passed() ? " -- all invariants hold" : "");
    }
    // The repro is the artifact CI needs most, so it is written
    // before (and regardless of) the report, and an I/O error never
    // masks a violation verdict: "invariants broken" stays exit 1.
    bool io_failed = false;
    if (!report.passed() && !repro_path.empty()) {
        // Ship the first failure (shrunk when available) as a
        // self-contained repro for `pifetch check --replay`; same
        // schema as one entry of the report's "failures" array.
        if (writeOutput(repro_path,
                        toJson(toResult(report.failures.front()), 2) +
                            "\n")) {
            // Keep a `--json -` stdout stream pure JSON: route the
            // notice to stderr there, like run/sweep keep their
            // reports off it.
            if (!out.quiet) {
                std::fprintf(out.json == "-" ? stderr : stdout,
                             "repro written to %s\n",
                             repro_path.c_str());
            }
        } else {
            io_failed = true;
        }
    }
    if (!out.write(doc))
        io_failed = true;
    // Exit contract (docs/cli.md): 2 is reserved for usage errors;
    // output-write failures report 1, matching run/sweep.
    return (!report.passed() || io_failed) ? 1 : 0;
}

int
cmdQuery(Cli &cli)
{
    std::vector<WorkloadRef> resolved;
    std::string load_path;
    PrefetcherKind kind = PrefetcherKind::Pif;
    bool engine_cycle = false;
    std::uint64_t warmup = 50'000;
    std::uint64_t measure = 200'000;
    SystemConfig cfg;
    EventStoreOptions store_opts;
    std::string dump_path;
    bool streams = false;
    std::vector<Query> queries;
    Output out;
    std::string kinds;
    for (PrefetcherKind k :
         {PrefetcherKind::None, PrefetcherKind::NextLine,
          PrefetcherKind::Tifs, PrefetcherKind::Discontinuity,
          PrefetcherKind::Pif, PrefetcherKind::Perfect})
        kinds += (kinds.empty() ? "" : "|") + prefetcherKey(k);
    const std::vector<Option> table = concat(
        {workloadRows(resolved),
         {path("--load", "FILE",
               "query a saved event dump instead of recording", load_path),
          text("--prefetcher", "K", kinds + " (default pif)",
               [&kind, &kinds](const std::string &v) -> std::string {
                   const auto k = prefetcherFromKey(v);
                   if (!k)
                       return "unknown prefetcher '" + v + "' (known: " +
                              kinds + ")";
                   kind = *k;
                   return "";
               }),
          text("--engine", "E", "trace|cycle (default trace)",
               [&engine_cycle](const std::string &v) -> std::string {
                   if (v != "trace" && v != "cycle")
                       return "--engine must be trace or cycle";
                   engine_cycle = v == "cycle";
                   return "";
               }),
          num("--warmup", "warmup instructions (default 50000)",
              [&warmup](std::uint64_t n) { warmup = n; }),
          num("--measure", "recorded instructions (default 200000)",
              [&measure](std::uint64_t n) { measure = n; })},
         configRows(cfg),
         // 0 is EventStoreOptions' "sampling disabled"; as a request it
         // would silently empty the counters table.
         {num("--window", "counter-sample stride in retired instructions",
              [&store_opts](std::uint64_t n) {
                  store_opts.counterWindow = n;
              },
              1),
          flag("--retires", "also record one slice per retired instruction",
               [&store_opts] { store_opts.recordRetires = true; }),
          num("--max-slices", "slice-row cap; excess rows are counted",
              [&store_opts](std::uint64_t n) { store_opts.maxSlices = n; }),
          path("--dump", "FILE|-",
               "write the store as a reloadable pifetch-events-v1 dump",
               dump_path, Kind::Out),
          text("--query", "Q",
               "run one query, docs/query.md grammar (repeatable)",
               [&queries](const std::string &v) {
                   std::string err;
                   if (const auto q = parseQuery(v, &err))
                       queries.push_back(*q);
                   return err;
               }),
          flag("--streams", "emit the Fig. 2-style miss-stream table",
               [&streams] { streams = true; })},
         out.rows()});
    if (!cli.parse(table))
        return cli.status;
    int sources = 0;
    for (const auto &entry : cli.seen) {
        sources += entry.first == "--workload" ||
                   entry.first == "--workload-file" ||
                   entry.first == "--load";
    }
    if (sources == 0)
        return cli.error("need a source: --workload, --workload-file or "
                         "--load");
    if (sources > 1)
        return cli.error("multiple sources; pass exactly one of "
                         "--workload, --workload-file or --load");
    // A dump is immutable data: accepting-and-ignoring run knobs would
    // report results for a run that never happened.
    const auto *record_only = cli.given(
        {"--prefetcher", "--engine", "--warmup", "--measure", "--seed",
         "--set", "--window", "--max-slices", "--retires", "--dump"});
    if (!load_path.empty() && record_only)
        return cli.error(record_only->first + " has no effect with --load");
    if (queries.empty() && !streams && dump_path.empty())
        return cli.error("nothing to do; pass --query, --streams and/or "
                         "--dump");
    if (const auto bad = validateSystemConfig(cfg))
        return cli.error(*bad);
    if (dump_path == "-")
        out.quiet = true;  // keep the stdout dump pure JSON

    EventStore store(store_opts);
    ResultValue meta = ResultValue::object();
    if (!load_path.empty()) {
        std::string err;
        const auto doc = loadJsonFile(load_path, &err);
        std::optional<EventStore> loaded;
        if (doc && !(loaded = eventStoreFromResult(*doc, &err)))
            err = load_path + ": " + err;
        if (!loaded)
            return cli.error(err);
        store = std::move(*loaded);
        meta.set("load", load_path);
    } else {
        const WorkloadRef &w = resolved.front();
        const Program prog = w.buildProgram();
        const ExecutorConfig exec = w.executorConfig();
        ObserverConfig obs;
        obs.events = &store;
        if (engine_cycle) {
            CycleEngine engine(cfg, prog, exec, kind);
            engine.attachObservers(obs);
            engine.run(warmup, measure);
        } else {
            TraceEngine engine(cfg, prog, exec,
                               makePrefetcher(kind, cfg));
            engine.attachObservers(obs);
            engine.run(warmup, measure);
        }
        meta.set("workload", w.key());
        meta.set("prefetcher", prefetcherKey(kind));
        meta.set("engine", engine_cycle ? "cycle" : "trace");
        meta.set("warmup", warmup);
        meta.set("measure", measure);
        meta.set("seed", cfg.seed);
    }
    meta.set("slices", store.sliceCount());
    meta.set("counters", store.counterCount());
    meta.set("dropped_slices", store.droppedSlices());
    std::uint64_t retired = 0;
    for (unsigned c = 0; c < store.coresSeen(); ++c)
        retired += store.retired(c);
    meta.set("retired", retired);
    meta.set("cores", store.coresSeen());

    ResultValue tables = ResultValue::array();
    for (const Query &q : queries) {
        std::string err;
        auto table_doc = runQuery(store, q, &err);
        if (!table_doc)
            return cli.error(err);
        tables.push(std::move(*table_doc));
    }
    if (streams)
        tables.push(missStreamLengthTable(store));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", "query");
    doc.set("description", "columnar event-store queries");
    doc.set("meta", std::move(meta));
    doc.set("tables", std::move(tables));

    bool ok = true;
    if (!dump_path.empty() &&
        !writeOutput(dump_path, toJson(toResult(store), 2) + "\n"))
        ok = false;
    if (!emitOutputs(out, doc))
        ok = false;
    return ok ? 0 : 1;
}

int
cmdLint(Cli &cli)
{
    lint::LintOptions opts;
    Output out;
    bool list_rules = false;
    bool self_test = false;
    const std::vector<Option> table = concat(
        {{text("[paths...]", "",
               "repo-relative path prefixes (default src bench examples "
               "tests)",
               [&opts](const std::string &v) {
                   opts.paths.push_back(v);
                   return std::string();
               },
               Kind::Args),
          text("--rule", "ID", "run only rule ID (repeatable)",
               [&opts](const std::string &v) -> std::string {
                   if (!lint::findRule(v))
                       return "unknown rule '" + v +
                              "' (try `pifetch lint --list-rules`)";
                   opts.rules.push_back(v);
                   return "";
               }),
          path("--root", "DIR",
               "repository root (default: this build's checkout)",
               opts.root),
          flag("--list-rules", "print the rule catalog and exit",
               [&list_rules] { list_rules = true; }),
          flag("--self-test", "replay every rule's fixture and exit",
               [&self_test] { self_test = true; })},
         out.rows(false)});
    if (!cli.parse(table))
        return cli.status;

    if (list_rules) {
        std::printf("%-24s %-12s %-8s %s\n", "rule", "class",
                    "severity", "summary");
        for (const lint::Rule &r : lint::ruleCatalog())
            std::printf("%-24s %-12s %-8s %s\n", r.id.c_str(),
                        r.category.c_str(),
                        lint::severityKey(r.severity).c_str(),
                        r.summary.c_str());
        return 0;
    }

    if (self_test) {
        const std::vector<std::string> failures =
            lint::runRuleSelfTest();
        for (const std::string &f : failures)
            cli.error("self-test: " + f);
        if (!out.quiet) {
            std::printf("lint self-test: %zu rules, %zu failure%s\n",
                        lint::ruleCatalog().size(), failures.size(),
                        failures.size() == 1 ? "" : "s");
        }
        return failures.empty() ? 0 : 1;
    }

    std::string err;
    const lint::LintReport report = lint::runLint(opts, &err);
    if (!err.empty())
        return cli.error(err);

    const std::string root =
        opts.root.empty() ? lint::defaultRoot() : opts.root;
    if (out.report()) {
        for (const lint::Finding &f : report.findings) {
            if (f.suppressed)
                continue;
            std::printf("%s:%u: [%s] %s: %s\n", f.file.c_str(),
                        f.violation.line,
                        lint::severityKey(f.violation.severity)
                            .c_str(),
                        f.violation.rule.c_str(),
                        f.violation.message.c_str());
        }
        std::printf("lint: %u files, %u error%s, %u warning%s "
                    "(%u suppressed)\n",
                    report.filesScanned, report.errors(),
                    report.errors() == 1 ? "" : "s",
                    report.warnings(),
                    report.warnings() == 1 ? "" : "s",
                    report.suppressedCount());
    }
    if (!out.write(lint::toResult(report, root)))
        return 1;
    return report.clean() ? 0 : 1;
}

/** One `pifetch` verb. */
struct Verb
{
    const char *name;
    const char *summary;
    int (*run)(Cli &);
};

const std::vector<Verb> &
verbs()
{
    static const std::vector<Verb> table = {
        {"list", "enumerate experiments, workloads and --set keys",
         cmdList},
        {"run", "run one experiment: human report plus optional JSON/CSV",
         cmdRun},
        {"sweep",
         "run the cartesian grid of every --param over one experiment",
         cmdSweep},
        {"trace info", "header summary of a v1 trace file", cmdTraceInfo},
        {"golden", "emit canonical golden-fixture JSON (scripts/regold.sh)",
         cmdGolden},
        {"perf", "time the hot kernels (docs/performance.md)", cmdPerf},
        {"check",
         "fuzz scenarios through the oracle battery (docs/validation.md)",
         cmdCheck},
        {"query",
         "record one run into the event store and query it "
         "(docs/query.md)",
         cmdQuery},
        {"lint", "project static-analysis rules (docs/linting.md)",
         cmdLint},
    };
    return table;
}

/** Every verb's option table, rendered from the tables themselves. */
int
usage(std::FILE *out)
{
    std::fputs("usage: pifetch <command> [options]\n", out);
    for (const Verb &v : verbs()) {
        Cli cli{v.name, v.summary, {}, out};
        v.run(cli);
    }
    std::fputs("\npifetch help\n    this message\n\n"
               "config keys (--set K=V, --param K=V1,V2):", out);
    std::size_t column = 80;
    for (const std::string &key : configOverrideKeys()) {
        if (column + key.size() > 72) {
            std::fputs("\n ", out);
            column = 1;
        }
        std::fprintf(out, " %s", key.c_str());
        column += key.size() + 1;
    }
    std::fputs("\n", out);
    return out == stderr ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(stderr);
    if (args[0] == "help" || args[0] == "--help" || args[0] == "-h")
        return usage(stdout);
    // `trace` verbs are two words.
    const std::size_t words = args[0] == "trace" && args.size() > 1 ? 2 : 1;
    const std::string name =
        words == 2 ? args[0] + " " + args[1] : args[0];
    for (const Verb &v : verbs()) {
        if (name == v.name) {
            Cli cli{name, v.summary, {args.begin() + words, args.end()}};
            return v.run(cli);
        }
    }
    std::fprintf(stderr, "pifetch: unknown command '%s'\n", name.c_str());
    return usage(stderr);
}
