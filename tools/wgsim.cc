/**
 * @file
 * wgsim — command-line driver for the warped-gates simulator.
 *
 * Examples:
 *   wgsim --bench hotspot --technique WarpedGates
 *   wgsim --bench all --technique ConvPG --csv results.csv
 *   wgsim --bench sgemm --scheduler gates --pg coordinated-blackout \
 *         --idle-detect 8 --bet 19 --wakeup 6 --adaptive --json out.json
 *   wgsim --bench hotspot --trace=trace.jsonl --trace-format=jsonl
 *   wgsim --bench hotspot --metrics=run.jsonl --metrics-format=jsonl
 *   wgsim --list
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/warped_gates.hh"
#include "experiment_flags.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "serve/snapshot.hh"
#include "sim/session.hh"
#include "trace/sink.hh"

namespace {

using namespace wg;

/** The whole command line, declaratively (drives parsing and --help). */
constexpr FlagSpec kFlags[] = {
    {"bench", FlagKind::String, "hotspot",
     "benchmark name, or 'all' for the full suite"},
    {"technique", FlagKind::String, "WarpedGates",
     "preset: Baseline|ConvPG|GATES|NaiveBlackout|CoordBlackout|"
     "WarpedGates"},
    {"scheduler", FlagKind::String, "",
     "override scheduler: two-level|gates|gto"},
    {"pg", FlagKind::String, "",
     "override gating policy: none|conventional|naive-blackout|"
     "coordinated-blackout"},
    {"adaptive", FlagKind::Bool, "",
     "override: enable adaptive idle detect"},
    {"gate-sfu", FlagKind::Bool, "", "extension: gate the SFU block too"},
    {"no-fastforward", FlagKind::Bool, "",
     "disable the event-horizon fast-forward and step every cycle "
     "(bit-identical results, slower; for cross-checking)"},
    {"csv", FlagKind::String, "", "write CSV rows to this file"},
    {"json", FlagKind::String, "",
     "write every result as one JSON document to this file"},
    {"list", FlagKind::Bool, "", "list the benchmark suite and exit"},
    {"quiet", FlagKind::Bool, "", "suppress the human-readable summary"},
    {"serial", FlagKind::Bool, "",
     "run simulations serially instead of on the shared thread pool "
     "(results are identical)"},
    {"trace", FlagKind::String, "",
     "record a cycle-level event trace to this file (single benchmark "
     "only)"},
    {"trace-format", FlagKind::String, "jsonl",
     "trace serialisation: chrome|jsonl|csv"},
    {"trace-sm", FlagKind::Int, "-1",
     "record only this SM id (-1 = every SM)"},
    {"metrics", FlagKind::String, "",
     "write epoch time-series + final metric registry to this file "
     "(single benchmark only)"},
    {"metrics-format", FlagKind::String, "jsonl",
     "metrics serialisation: csv|jsonl|prom"},
    {"profile", FlagKind::Bool, "",
     "self-profile: include wall-clock phase timers, pool stats and "
     "fast-forward coverage (profile.*) in the metrics registry and "
     "print a phase table; the table's export row includes the "
     "--metrics write, the file's own profile.phase.export cannot"},
    {"checkpoint-at", FlagKind::Count, "0",
     "pause at this cycle (epoch boundaries by convention) and write "
     "the snapshot named by --checkpoint (single benchmark only)"},
    {"checkpoint", FlagKind::String, "",
     "snapshot file to write at --checkpoint-at"},
    {"resume", FlagKind::String, "",
     "resume a run from this snapshot file; the snapshot pins the "
     "benchmark/technique/options, so identity flags are ignored — "
     "re-specify --trace/--metrics exactly as on the captured run"},
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgsim",
                   "Warped Gates simulator driver (MICRO'13 repro)",
                   kFlags, kExperimentFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;

    // --profile wall clock; opt-in, excluded from byte-identity.
    const auto wall_start = std::chrono::steady_clock::now(); // wglint:allow(D1)

    if (args.getBool("list")) {
        Table table("benchmark suite (paper Section 7.1)");
        table.header({"name", "INT", "FP", "SFU", "LDST", "warps"});
        for (const auto& p : benchmarkSuite()) {
            table.row({p.name, Table::pct(p.fracInt, 0),
                       Table::pct(p.fracFp, 0), Table::pct(p.fracSfu, 0),
                       Table::pct(p.fracLdst, 0),
                       std::to_string(p.residentWarps)});
        }
        table.print();
        return 0;
    }

    Technique tech = Technique::Baseline;
    if (!serve::wire::parseTechnique(args.getString("technique"), tech)) {
        std::fprintf(stderr, "unknown technique '%s'\n",
                     args.getString("technique").c_str());
        return 2;
    }

    // The run's identity: the (bench, technique, options) cell plus the
    // config overrides. A written checkpoint records exactly this block
    // so a later `--resume` can rebuild the same config and workload.
    serve::wire::SnapshotIdentity ident;
    ident.bench = args.getString("bench");
    ident.technique = tech;
    ident.options = readExperimentOptions(args);
    if (args.given("scheduler")) {
        SchedulerPolicy p;
        if (!parseSchedulerPolicy(args.getString("scheduler"), p)) {
            std::fprintf(stderr, "unknown scheduler '%s'\n",
                         args.getString("scheduler").c_str());
            return 2;
        }
        ident.schedulerOverride = args.getString("scheduler");
    }
    if (args.given("pg")) {
        PgPolicy p;
        if (!parsePgPolicy(args.getString("pg"), p)) {
            std::fprintf(stderr, "unknown pg policy '%s'\n",
                         args.getString("pg").c_str());
            return 2;
        }
        ident.pgOverride = args.getString("pg");
    }
    ident.adaptiveOverride = args.getBool("adaptive");
    ident.gateSfuOverride = args.getBool("gate-sfu");

    const bool resuming = args.given("resume");
    const Cycle checkpoint_at = args.getCount("checkpoint-at");
    const bool checkpointing =
        args.given("checkpoint") || args.given("checkpoint-at");
    if (checkpointing &&
        (!args.given("checkpoint") || checkpoint_at == 0)) {
        std::fprintf(stderr,
                     "wgsim: --checkpoint and a positive "
                     "--checkpoint-at must be given together\n");
        return 2;
    }

    // On resume the snapshot document is authoritative for the run's
    // identity; only observer flags (--trace/--metrics) and
    // --no-fastforward (unobservable in results) still apply.
    GpuSnapshot resume_snap;
    const std::string resume_path = args.getString("resume");
    if (resuming) {
        std::string text;
        if (!readFile(resume_path, text)) {
            std::fprintf(stderr, "wgsim: cannot read %s\n",
                         resume_path.c_str());
            return 2;
        }
        Json doc;
        std::string error;
        if (!Json::parse(text, doc, error,
                                serve::wire::snapshotJsonLimits()) ||
            !serve::wire::parseSnapshotDoc(doc, ident, resume_snap,
                                           error)) {
            std::fprintf(stderr, "wgsim: %s: %s\n", resume_path.c_str(),
                         error.c_str());
            return 2;
        }
        bool known_bench = false;
        for (const std::string& b : benchmarkNames())
            known_bench = known_bench || b == ident.bench;
        if (!known_bench) {
            std::fprintf(stderr, "wgsim: %s: unknown benchmark '%s'\n",
                         resume_path.c_str(), ident.bench.c_str());
            return 2;
        }
    }

    GpuConfig config;
    {
        std::string error;
        if (!serve::wire::snapshotConfig(ident, config, error)) {
            if (resuming)
                error = resume_path + ": " + error;
            std::fprintf(stderr, "wgsim: %s\n", error.c_str());
            return 2;
        }
    }
    if (args.getBool("no-fastforward"))
        config.sm.fastForward = false;

    std::vector<std::string> benches;
    if (!resuming && args.getString("bench") == "all")
        benches = benchmarkNames();
    else
        benches.push_back(ident.bench);
    if ((checkpointing || resuming) && benches.size() != 1) {
        std::fprintf(stderr,
                     "--checkpoint/--resume work on one benchmark per "
                     "run; pick a single --bench\n");
        return 2;
    }

    trace::SinkFormat trace_format = trace::SinkFormat::Jsonl;
    if (!trace::parseSinkFormat(args.getString("trace-format"),
                                trace_format)) {
        std::fprintf(stderr, "unknown trace format '%s'\n",
                     args.getString("trace-format").c_str());
        return 2;
    }
    const bool tracing = args.given("trace");
    if (tracing && benches.size() != 1) {
        std::fprintf(stderr,
                     "--trace records one benchmark per file; pick a "
                     "single --bench\n");
        return 2;
    }
    trace::RecorderConfig trace_config;
    trace_config.smFilter = args.getInt("trace-sm");
    trace::Collector collector(trace_config);

    metrics::MetricsFormat metrics_format = metrics::MetricsFormat::Jsonl;
    if (!metrics::parseMetricsFormat(args.getString("metrics-format"),
                                     metrics_format)) {
        std::fprintf(stderr, "unknown metrics format '%s'\n",
                     args.getString("metrics-format").c_str());
        return 2;
    }
    const bool metering = args.given("metrics");
    const bool profiling = args.getBool("profile");
    if ((metering || profiling) && benches.size() != 1) {
        std::fprintf(stderr,
                     "--metrics/--profile record one benchmark per "
                     "run; pick a single --bench\n");
        return 2;
    }
    metrics::Collector mcollector;
    metrics::Collector* mets =
        (metering || profiling) ? &mcollector : nullptr;

    // Schedule every benchmark's simulation on the shared pool (each
    // one additionally fans its per-SM jobs into the same pool), then
    // report in suite order. --serial keeps everything on this thread;
    // either way the results are bit-identical.
    ThreadPool* pool =
        args.getBool("serial") ? nullptr : &ThreadPool::global();
    std::vector<SimResult> results;
    results.reserve(benches.size());
    trace::Collector* coll = tracing ? &collector : nullptr;
    if (checkpointing || resuming) {
        // Single-benchmark resumable path: open (or restore) a
        // SimSession, optionally pause at the checkpoint cycle and
        // write the snapshot instead of finishing.
        const BenchmarkProfile& profile = findBenchmark(benches[0]);
        std::unique_ptr<SimSession> session;
        if (resuming) {
            std::string error;
            session = SimSession::restore(resume_snap, profile, config,
                                          pool, coll, mets, &error);
            if (session == nullptr) {
                std::fprintf(stderr, "wgsim: %s: %s\n",
                             resume_path.c_str(), error.c_str());
                return 2;
            }
        } else {
            session = std::make_unique<SimSession>(
                SimSession::open(profile, config, pool, coll, mets));
        }
        if (checkpointing) {
            session->runUntil(checkpoint_at);
            if (!session->done()) {
                const std::string out = args.getString("checkpoint");
                writeFile(out, serve::wire::snapshotDoc(
                                   ident, session->snapshot())
                                       .dump() +
                                   "\n");
                inform("wrote ", out, " (checkpoint at cycle ",
                       checkpoint_at, ")");
                return 0;
            }
            inform("benchmark drained before cycle ", checkpoint_at,
                   "; no checkpoint written, finishing normally");
        }
        results.push_back(session->result());
    } else if (pool == nullptr) {
        Gpu gpu(config);
        for (const std::string& bench : benches)
            results.push_back(
                gpu.run(findBenchmark(bench), nullptr, coll, mets));
    } else {
        Gpu gpu(config);
        std::vector<std::future<SimResult>> futures;
        futures.reserve(benches.size());
        for (const std::string& bench : benches) {
            const BenchmarkProfile& profile = findBenchmark(bench);
            futures.push_back(
                pool->submit([&gpu, &profile, pool, coll, mets] {
                    return gpu.run(profile, pool, coll, mets);
                }));
        }
        results = pool->waitAll(futures);
    }

    {
        metrics::PhaseTimers::Scope timer(
            profiling ? &mcollector.profile : nullptr, "export");
        std::vector<LabelledResult> report;
        for (std::size_t i = 0; i < benches.size(); ++i)
            report.push_back({benches[i], &results[i]});
        reportResults(std::cout, report, args.getBool("quiet"),
                      args.getString("csv"), args.getString("json"));
        if (tracing) {
            trace::writeTraceFile(args.getString("trace"), collector,
                                  trace_format, pool);
            inform("wrote ", args.getString("trace"), " (",
                   collector.totalEvents(), " events, ",
                   collector.totalOverwritten(), " lost to wrap)");
        }
    }

    if (metering || profiling) {
        StatSet registry = metrics::toStatSet(results[0]);
        const auto elapsedSeconds = [&wall_start] {
            return std::chrono::duration<double>(
                       // wglint:allow(D1): profiling wall clock (opt-in)
                       std::chrono::steady_clock::now() - wall_start)
                .count();
        };
        const double elapsed = elapsedSeconds();
        PoolStats pool_stats = ThreadPool::global().stats();
        if (profiling) {
            // Wall-clock self-profiling is opt-in: these values differ
            // between otherwise-identical runs, so including them by
            // default would break the metrics files' byte-identity.
            mcollector.profile.publish(registry);
            const unsigned threads = ThreadPool::global().size();
            registry.set("profile.elapsedSeconds", elapsed);
            registry.set("profile.pool.threads", threads);
            registry.set("profile.pool.tasksExecuted",
                         static_cast<double>(pool_stats.tasksExecuted));
            registry.set("profile.pool.busySeconds",
                         pool_stats.busySeconds);
            registry.set("profile.pool.utilization",
                         elapsed > 0.0 ? pool_stats.busySeconds /
                                             (elapsed * threads)
                                       : 0.0);
            registry.set("profile.sm.ffSkippedCycles",
                         static_cast<double>(mcollector.ffSkippedCycles));
            registry.set("profile.sm.ffSpans",
                         static_cast<double>(mcollector.ffSpans));
        }
        if (metering) {
            // Counted in the export row of the table below; the
            // registry was published above, so the metrics file's own
            // profile.phase.export cannot include this write.
            metrics::PhaseTimers::Scope timer(
                profiling ? &mcollector.profile : nullptr, "export");
            metrics::writeMetricsFile(args.getString("metrics"),
                                      &mcollector, registry,
                                      metrics_format);
            inform("wrote ", args.getString("metrics"), " (",
                   mcollector.totalSamples(), " epoch samples, ",
                   registry.entries().size(), " metrics)");
        }
        if (profiling && !args.getBool("quiet")) {
            Table table("self-profile (wall-clock)");
            table.header({"phase", "seconds"});
            for (const auto& [phase, secs] :
                 mcollector.profile.seconds())
                table.row({phase, Table::num(secs, 3)});
            table.row({"total elapsed", Table::num(elapsedSeconds(), 3)});
            table.row({"pool busy (all tasks)",
                       Table::num(pool_stats.busySeconds, 3)});
            table.print();
            Table ff("fast-forward coverage (all SMs)");
            ff.header({"counter", "value"});
            ff.row({"profile.sm.ffSkippedCycles",
                    std::to_string(mcollector.ffSkippedCycles)});
            ff.row({"profile.sm.ffSpans",
                    std::to_string(mcollector.ffSpans)});
            ff.print();
        }
    }
    return 0;
}
