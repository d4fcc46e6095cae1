/**
 * @file
 * perfbench — one workload of the end-to-end benchmark per invocation.
 *
 *   perfbench --workload suite_sweep --seed 1 --seconds 25 --trace 0
 *
 * The last stdout line is one JSON record: host fingerprint, the
 * correctness tally and failures, the end-to-end metrics (untraced) or
 * the per-layer metrics (traced). run.py builds this binary, turns the
 * record into the benchmark's result line and keeps the full record.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "perfbench.hh"
#include "serve/json.hh"

namespace {

using namespace perfbench;

constexpr wg::FlagSpec kFlags[] = {
    {"workload", wg::FlagKind::String, "",
     "suite_sweep | traced_checkpoint | served_jobs"},
    {"seed", wg::FlagKind::Int, "1", "input seed"},
    {"seconds", wg::FlagKind::Double, "10", "measuring time"},
    {"trace", wg::FlagKind::Int, "0",
     "1 = traced run: per-layer metrics and spans"},
    {"spans-out", wg::FlagKind::String, "",
     "write the traced run's spans here as jsonl"},
    {"pin-out", wg::FlagKind::String, "",
     "suite_sweep: write this seed's result digests here (to re-pin)"},
};

std::string
quote(const std::string& s)
{
    return "\"" + wg::serve::jsonEscape(s) + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const MetricMap& m)
{
    std::string s = "{";
    for (const auto& [name, metric] : m) {
        if (s.size() > 1)
            s += ",";
        s += quote(name) + ":{\"value\":" + number(metric.value) +
             ",\"unit\":" + quote(metric.unit) + "}";
    }
    return s + "}";
}

void
writeSpans(const std::string& path, const std::vector<SpanRecord>& spans)
{
    std::ofstream os(path);
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"name\":" << quote(s.name) << ",\"item\":" << quote(s.item)
           << ",\"start_ns\":" << s.startNs - t0
           << ",\"end_ns\":" << s.endNs - t0 << ",\"self_ns\":" << self[i]
           << "}\n";
    }
    if (!os)
        wg::fatal("perfbench: cannot write ", path);
}

} // namespace

int
main(int argc, char** argv)
{
    wg::ArgParser args("perfbench", "end-to-end benchmark workload",
                       kFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;
    wg::setQuiet(true);

    RunOptions o;
    o.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    o.seconds = args.getDouble("seconds");
    o.trace = args.getInt("trace") != 0;
    o.pinnedPath = PERFBENCH_PINNED;
    o.pinOut = args.getString("pin-out");

    // The global pool is built before any timing; its cost is part of
    // setup_s.
    const auto t0 = Clock::now();
    wg::ThreadPool::global();
    o.poolCreateS = secondsSince(t0);

    const std::string workload = args.getString("workload");
    Outcome out;
    if (workload == "suite_sweep") {
        out = runSuiteSweep(o);
    } else if (workload == "traced_checkpoint") {
        out = runTracedCheckpoint(o);
    } else if (workload == "served_jobs") {
        out = runServedJobs(o);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s",
                     workload.c_str(), args.usage().c_str());
        return 2;
    }

    if (o.trace && args.given("spans-out"))
        writeSpans(args.getString("spans-out"), out.spans);

    const HostInfo h = hostInfo();
    std::string failures = "[";
    for (const std::string& f : out.failures)
        failures += (failures.size() > 1 ? "," : "") + quote(f);
    failures += "]";
    std::string rates = "[";
    for (double r : out.unitRates)
        rates += (rates.size() > 1 ? "," : "") + number(r);
    rates += "]";
    std::cout << "{\"host\":{\"nproc\":" << h.nproc
              << ",\"pool_threads\":" << h.poolThreads
              << ",\"build_type\":" << quote(h.buildType)
              << ",\"optimized\":" << (h.optimized ? "true" : "false")
              << ",\"compiler\":" << quote(h.compiler)
              << ",\"cpu\":" << quote(h.cpu) << "}"
              << ",\"workload\":" << quote(workload) << ",\"seed\":" << o.seed
              << ",\"trace\":" << (o.trace ? 1 : 0)
              << ",\"correct\":"
              << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed << ",\"failures\":" << failures
              << ",\"unit_rates\":" << rates
              << ",\"e2e\":" << metricsJson(out.e2e)
              << ",\"layers\":" << metricsJson(o.trace ? out.layers : MetricMap{})
              << "}" << std::endl;
    return 0;
}
