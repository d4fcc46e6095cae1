/**
 * @file
 * The three workloads. Each sets up (timed several times; setup_s is
 * the median plus the one-off pool construction), then measures for
 * the requested seconds, checking every output as it goes.
 *
 * Untraced, a workload fills Outcome::e2e. Traced, it measures with
 * spans off and on in turn (their difference is span.overhead_frac),
 * and fills Outcome::layers from the spans-on units plus a few calls
 * made only in the traced run: driving every SM directly for the
 * fast-forward diagnostics SmStats omits, recomputing energy, and
 * rendering the result reports.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "common/threadpool.hh"
#include "core/experiment.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "perfbench.hh"
#include "report/export.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/snapshot.hh"
#include "sim/gpu.hh"
#include "sim/session.hh"
#include "trace/sink.hh"
#include "workload/generator.hh"

namespace perfbench {

using wg::ExperimentOptions;
using wg::ExperimentRunner;
using wg::SimResult;
using wg::Technique;
using wg::ThreadPool;

namespace {

constexpr unsigned kSetupRepeats = 9;
/**
 * Fewest passes or rounds an untraced run measures, whatever the time:
 * the first unit in a process runs slow, and the median of three drops
 * it.
 */
constexpr std::size_t kMinUnits = 3;
/** Closed-loop clients of served_jobs (at most nproc). */
constexpr unsigned kMaxClients = 4;
/** Status poll period of `wgctl submit --wait`. */
constexpr int kWaitPollMs = 100;

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Median over @p units of @p f(unit). */
template <typename T, typename F>
double
medianOf(const std::vector<T>& units, F f)
{
    std::vector<double> xs;
    for (const T& u : units)
        xs.push_back(f(u));
    return median(xs);
}

/**
 * The traced run's measuring: alternate single units (a pass, a round)
 * with spans off and on until @p seconds have passed and each side has
 * one, so both sides see the same warm-up. @return {off, on}.
 */
template <typename Measure>
auto
alternate(SpanLog& spans, double seconds, Measure&& measureOne)
{
    using Units = decltype(measureOne(0.0, 1));
    std::pair<Units, Units> out;
    const auto start = Clock::now();
    for (bool on = false;
         secondsSince(start) < seconds || out.second.empty(); on = !on) {
        spans.setEnabled(on);
        Units units = measureOne(0.0, 1);
        Units& side = on ? out.second : out.first;
        side.insert(side.end(), units.begin(), units.end());
    }
    spans.setEnabled(true);
    return out;
}

std::string
cellId(const std::string& bench, Technique t, const ExperimentOptions& o)
{
    return bench + "/" + wg::techniqueName(t) + "/seed" +
           std::to_string(o.seed);
}

void
warmPool(ThreadPool& pool)
{
    std::vector<std::future<void>> futures;
    for (unsigned i = 0; i < pool.size(); ++i)
        futures.push_back(pool.submit([] {}));
    for (auto& f : futures)
        pool.wait(f);
}

/** Set-up work shared by the workloads. */
struct Prepared
{
    double genMs = 0.0;
    std::uint64_t instrs = 0;
    std::string errors; ///< config validation messages
};

/**
 * Validate every (bench x technique) config and generate every bench's
 * per-SM programs, in the order SimSession::open generates them.
 */
Prepared
prepareCells(const std::vector<std::string>& benches,
             const std::vector<Technique>& techs,
             const ExperimentOptions& opts, SpanLog& spans)
{
    Prepared p;
    for (Technique t : techs)
        for (const std::string& e : wg::makeConfig(t, opts).validate())
            p.errors += std::string(wg::techniqueName(t)) + ": " + e + "; ";
    const auto t0 = Clock::now();
    for (const std::string& bench : benches) {
        Span span(spans, "workload.ProgramGenerator::generateSm", bench);
        const wg::BenchmarkProfile& profile = wg::findBenchmark(bench);
        wg::ProgramGenerator gen(opts.seed);
        for (unsigned s = 0; s < opts.numSms; ++s)
            for (const wg::Program& prog : gen.generateSm(profile, s))
                p.instrs += prog.size();
    }
    p.genMs = secondsSince(t0) * 1e3;
    return p;
}

/**
 * Time @p once kSetupRepeats times (pool warm-up included) and return
 * setup_s; @p after runs untimed between repeats.
 */
template <typename Once, typename After>
double
timeSetup(const RunOptions& o, Outcome& out, SpanLog& spans, Once&& once,
          After&& after)
{
    std::vector<double> samples;
    for (unsigned k = 0; k < kSetupRepeats; ++k) {
        const auto t0 = Clock::now();
        {
            Span span(spans, "bench.setup", "repeat" + std::to_string(k));
            warmPool(ThreadPool::global());
            const Prepared p = once(k);
            if (k == 0)
                out.check("setup", p.errors);
        }
        samples.push_back(secondsSince(t0));
        after(k);
    }
    return o.poolCreateS + median(samples);
}

/** Compare @p digest with the pinned one when the cell is pinned. */
std::string
pinCheck(const std::map<std::string, std::string>& pins,
         const std::string& bench, Technique t,
         const ExperimentOptions& opts, const std::string& digest)
{
    const ExperimentOptions pinned = benchOptions(kPinnedSeed);
    if (opts.seed != pinned.seed || opts.numSms != pinned.numSms)
        return "";
    auto it = pins.find(pinKey(bench, t));
    if (it == pins.end())
        return "no pinned digest";
    return it->second == digest ? "" : "digest " + digest +
                                           " differs from pinned " +
                                           it->second;
}

/** A computed cell, for the traced-run extras and modelled metrics. */
struct CellRef
{
    std::string bench;
    Technique technique = Technique::Baseline;
    ExperimentOptions opts;
    const SimResult* result = nullptr;
};

/** The modelled per-layer metrics, summed over @p cells. */
void
addModelled(MetricMap& m, const std::vector<CellRef>& cells)
{
    double issued = 0, slots = 0, sm_cycles = 0, active = 0, switches = 0;
    double int_busy = 0, fp_busy = 0, hits = 0, misses = 0, rejects = 0;
    double gating = 0, uncomp = 0, critical = 0, requests = 0;
    for (const CellRef& c : cells) {
        const SimResult& r = *c.result;
        const wg::PgDomainStats i = r.typeStats(wg::UnitClass::Int);
        const wg::PgDomainStats f = r.typeStats(wg::UnitClass::Fp);
        const auto& a = r.aggregate;
        issued += static_cast<double>(a.issuedTotal);
        sm_cycles += static_cast<double>(r.totalSmCycles);
        slots += static_cast<double>(r.totalSmCycles) *
                 r.config.sm.issueWidth;
        active += static_cast<double>(a.activeSizeAccum);
        switches += static_cast<double>(a.prioritySwitches);
        int_busy += static_cast<double>(i.busyCycles);
        fp_busy += static_cast<double>(f.busyCycles);
        hits += static_cast<double>(a.memHits);
        misses += static_cast<double>(a.memMisses);
        rejects += static_cast<double>(a.mshrRejects);
        gating += static_cast<double>(i.gatingEvents + f.gatingEvents);
        uncomp += static_cast<double>(i.uncompWakeups + f.uncompWakeups);
        critical +=
            static_cast<double>(i.criticalWakeups + f.criticalWakeups);
        requests += static_cast<double>(a.wakeupRequests);
    }
    m["sched.issue_util"].value = ratio(issued, slots);
    m["sched.avg_active_warps"].value = ratio(active, sm_cycles);
    m["sched.priority_switches"].value = switches;
    // Two clusters per type.
    m["exec.int_busy_frac"].value = ratio(int_busy, 2 * sm_cycles);
    m["exec.fp_busy_frac"].value = ratio(fp_busy, 2 * sm_cycles);
    m["mem.miss_frac"].value = ratio(misses, hits + misses);
    m["mem.mshr_rejects"].value = rejects;
    m["pg.gating_events"].value = gating;
    m["pg.critical_wakeups_per_1k"].value =
        ratio(1000.0 * critical, sm_cycles);
    m["pg.wakeup_requests"].value = requests;
    m["pg.compensated_frac"].value = ratio(gating - uncomp, gating);
}

/**
 * Drive every SM of every cell directly — programs from the same
 * generator, seeds from Gpu::smSeed — to read the fast-forward
 * diagnostics that SmStats leaves out, and time Sm::run itself. Each
 * cell's SM totals must agree with its Gpu::run result.
 */
void
driveSms(const std::vector<CellRef>& cells, SpanLog& spans, Outcome& out)
{
    struct Drive
    {
        double runNs = 0;
        std::uint64_t cycles = 0, issued = 0, skipped = 0, ffSpans = 0;
    };
    ThreadPool& pool = ThreadPool::global();
    std::vector<Drive> drives(cells.size());
    Span root(spans, "bench.drive");
    const std::uint32_t parent = root.id();
    std::vector<std::future<void>> futures;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        futures.push_back(pool.submit([&, i] {
            const CellRef& c = cells[i];
            const std::string id = cellId(c.bench, c.technique, c.opts);
            Span cell(spans, "bench.driveCell", id, parent);
            const wg::GpuConfig config = wg::makeConfig(c.technique, c.opts);
            std::vector<std::vector<wg::Program>> programs;
            {
                Span gen(spans, "workload.ProgramGenerator::generateSm", id);
                wg::ProgramGenerator generator(config.seed);
                for (unsigned s = 0; s < config.numSms; ++s)
                    programs.push_back(generator.generateSm(
                        wg::findBenchmark(c.bench), s));
            }
            Drive& d = drives[i];
            for (unsigned s = 0; s < config.numSms; ++s) {
                Span run(spans, "sim.Sm::run", id);
                wg::Sm sm(config.sm, std::move(programs[s]),
                          wg::Gpu::smSeed(config.seed, s));
                const auto t0 = Clock::now();
                const wg::SmStats& stats = sm.run();
                d.runNs += secondsSince(t0) * 1e9;
                d.cycles += stats.cycles;
                d.issued += stats.issuedTotal;
                d.skipped += sm.ffSkippedCycles();
                d.ffSpans += sm.ffSpans();
            }
        }));
    }
    for (auto& f : futures)
        pool.wait(f);

    Drive total;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Drive& d = drives[i];
        const SimResult& r = *cells[i].result;
        out.check("drive " + cellId(cells[i].bench, cells[i].technique,
                                    cells[i].opts),
                  d.cycles == r.totalSmCycles &&
                          d.issued == r.aggregate.issuedTotal
                      ? ""
                      : "direct Sm drive disagrees with Gpu::run");
        total.runNs += d.runNs;
        total.cycles += d.cycles;
        total.issued += d.issued;
        total.skipped += d.skipped;
        total.ffSpans += d.ffSpans;
    }
    MetricMap& m = out.layers;
    const double cycles = static_cast<double>(total.cycles);
    m["sim.run_ms"].value = total.runNs * 1e-6;
    m["sim.sm_cycles"].value = cycles;
    m["sim.issued"].value = static_cast<double>(total.issued);
    m["sim.ns_per_sm_cycle"].value = cycles > 0 ? total.runNs / cycles : 0;
    m["sim.ff_skipped_frac"].value =
        cycles > 0 ? static_cast<double>(total.skipped) / cycles : 0;
    m["sim.ff_spans"].value = static_cast<double>(total.ffSpans);
}

/**
 * Recompute each cell's energy (power) and render its report (json +
 * csv row); the recomputed energy must serialize identically.
 */
void
powerAndReport(const std::vector<CellRef>& cells, SpanLog& spans,
               Outcome& out)
{
    double energy_ns = 0, report_ns = 0, report_bytes = 0;
    for (const CellRef& c : cells) {
        const std::string id = cellId(c.bench, c.technique, c.opts);
        SimResult copy = *c.result;
        {
            Span span(spans, "power.computeEnergy", id);
            const auto t0 = Clock::now();
            wg::computeEnergy(copy);
            energy_ns += secondsSince(t0) * 1e9;
        }
        out.check("energy " + id,
                  cellDigest(c.bench, c.technique, c.opts, copy) ==
                          cellDigest(c.bench, c.technique, c.opts,
                                     *c.result)
                      ? ""
                      : "recomputed energy differs");
        Span span(spans, "report.toJson", id);
        const auto t0 = Clock::now();
        const std::string json = wg::toJson(c.bench, *c.result);
        const std::string row = wg::toCsvRow(c.bench, *c.result);
        report_ns += secondsSince(t0) * 1e9;
        report_bytes += static_cast<double>(json.size() + row.size());
    }
    MetricMap& m = out.layers;
    m["power.energy_us"].value =
        cells.empty() ? 0 : energy_ns * 1e-3 / static_cast<double>(cells.size());
    m["report.render_ms"].value = report_ns * 1e-6;
    m["report.bytes"].value = report_bytes;
}

/** Span count, span overhead and per-layer self times. */
void
finishTrace(Outcome& out, SpanLog& spans, double untraced_rate,
            double traced_rate)
{
    out.spans = spans.records();
    MetricMap& m = out.layers;
    m["span.count"].value = static_cast<double>(out.spans.size());
    m["span.overhead_frac"].value =
        traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0;
    for (const auto& [layer, ms] : layerSelfMs(out.spans)) {
        auto it = m.find("self_ms." + layer);
        if (it != m.end())
            it->second.value = ms;
    }
}

void
setE2e(Outcome& out, const std::string& name, double value,
       const std::string& unit)
{
    out.e2e[name] = {value, unit};
}

/** The metrics every workload reports. */
void
commonE2e(Outcome& out, double rate, double setup_s)
{
    setE2e(out, "sim_instr_per_s", rate, "instr/s");
    setE2e(out, "setup_s", setup_s, "s");
    setE2e(out, "peak_rss_mb", peakRssMb(), "MB");
    setE2e(out, "error_rate",
           out.attempted ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 1.0,
           "ratio");
}

} // namespace

// ===================================================================
// suite_sweep
// ===================================================================

Outcome
runSuiteSweep(const RunOptions& o)
{
    Outcome out;
    out.layers = zeroLayers();
    SpanLog spans;
    spans.setEnabled(o.trace);
    ThreadPool& pool = ThreadPool::global();
    const ExperimentOptions opts = benchOptions(o.seed);
    const std::vector<std::string> names = wg::benchmarkNames();
    const std::vector<Technique>& techs = wg::allTechniques();
    const wg::SweepSpec spec(names, techs, opts);
    const auto pins = loadPinned(o.pinnedPath);

    Prepared prep;
    const double setup_s = timeSetup(
        o, out, spans,
        [&](unsigned) { return prep = prepareCells(names, techs, opts, spans); },
        [](unsigned) {});

    std::vector<SimResult> first;      // pass 0's results, cell order
    std::vector<std::string> digests;  // ... and their digests
    unsigned pass_index = 0;

    struct Pass
    {
        double rate = 0, runall_ms = 0, tasks = 0, cpu_util = 0;
        double hit_frac = 0;
    };
    auto measure = [&](double seconds, std::size_t min_units) {
        std::vector<Pass> passes;
        const auto start = Clock::now();
        do {
            Span span_pass(spans, "bench.pass",
                           "pass" + std::to_string(pass_index));
            ExperimentRunner runner(opts, &pool); // cold cache every pass
            const std::uint64_t tasks0 = pool.stats().tasksExecuted;
            const double cpu0 = cpuSeconds();
            const auto t0 = Clock::now();
            std::vector<const SimResult*> rs;
            {
                Span span(spans, "core.ExperimentRunner::runAll");
                rs = runner.runAll(spec);
            }
            const double dt = secondsSince(t0);
            const double cpu = cpuSeconds() - cpu0;
            double instrs = 0;
            for (const SimResult* r : rs)
                instrs += static_cast<double>(r->aggregate.issuedTotal);
            const wg::CacheStats cs = runner.cacheStats();
            Pass pass;
            pass.rate = instrs / dt;
            out.unitRates.push_back(pass.rate);
            pass.runall_ms = dt * 1e3;
            pass.tasks =
                static_cast<double>(pool.stats().tasksExecuted - tasks0);
            pass.cpu_util = cpu / (dt * pool.size());
            pass.hit_frac = ratio(static_cast<double>(cs.hits),
                                  static_cast<double>(cs.hits + cs.misses));
            passes.push_back(pass);

            // Checks, outside the timed call.
            for (std::size_t i = 0; i < rs.size(); ++i) {
                const std::string& bench = names[i / techs.size()];
                const Technique t = techs[i % techs.size()];
                const std::string id = cellId(bench, t, opts);
                const std::string digest = cellDigest(bench, t, opts, *rs[i]);
                std::string why = checkCell(*rs[i]);
                if (why.empty() && pass_index == 0)
                    why = pinCheck(pins, bench, t, opts, digest);
                if (why.empty() && pass_index > 0 && digest != digests[i])
                    why = "pass differs from pass 0";
                out.check(id, why);
                if (pass_index == 0) {
                    first.push_back(*rs[i]);
                    digests.push_back(digest);
                }
            }
            ++pass_index;
        } while (secondsSince(start) < seconds ||
                 passes.size() < min_units);
        return passes;
    };

    auto writePins = [&] {
        std::ofstream os(o.pinOut);
        os << "# perfbench result digests: suite_sweep cells at seed "
           << o.seed << ", " << opts.numSms << " SMs (bench technique "
           << "digest)\n";
        for (std::size_t i = 0; i < digests.size(); ++i)
            os << names[i / techs.size()] << ' '
               << wg::techniqueName(techs[i % techs.size()]) << ' '
               << digests[i] << '\n';
        if (!os)
            wg::fatal("perfbench: cannot write ", o.pinOut);
    };

    if (!o.trace) {
        const std::vector<Pass> passes = measure(o.seconds, kMinUnits);
        if (!o.pinOut.empty())
            writePins();
        commonE2e(out, medianOf(passes, [](const Pass& p) { return p.rate; }),
                  setup_s);

        // Modelled: Fig. 9 suite averages (FP without integer-only
        // benchmarks) and the Fig. 10 geomean.
        auto at = [&](std::size_t b, Technique t) -> const SimResult& {
            const auto k = std::find(techs.begin(), techs.end(), t);
            return first[b * techs.size() +
                         static_cast<std::size_t>(k - techs.begin())];
        };
        Fig9Averages measured;
        for (std::size_t k = 0; k < 5; ++k) {
            const Technique t = fig9Techniques()[k];
            std::vector<double> ints, fps;
            for (std::size_t b = 0; b < names.size(); ++b) {
                ints.push_back(100.0 * at(b, t)
                                           .energy(wg::UnitClass::Int)
                                           .staticSavingsRatio());
                if (!wg::findBenchmark(names[b]).isIntegerOnly())
                    fps.push_back(100.0 * at(b, t)
                                              .energy(wg::UnitClass::Fp)
                                              .staticSavingsRatio());
            }
            measured.intPct[k] = wg::mean(ints);
            measured.fpPct[k] = wg::mean(fps);
        }
        std::vector<double> perf;
        for (std::size_t b = 0; b < names.size(); ++b)
            perf.push_back(1.0 / wg::normalizedRuntime(
                                     at(b, Technique::WarpedGates),
                                     at(b, Technique::Baseline)));
        setE2e(out, "paper_err_pp", paperErrPp(measured), "pp");
        setE2e(out, "wg_int_savings_pct", measured.intPct[4], "%");
        setE2e(out, "wg_fp_savings_pct", measured.fpPct[4], "%");
        setE2e(out, "wg_perf_loss_pct", 100.0 * (1.0 - wg::geomean(perf)),
               "%");
        return out;
    }

    const auto [untraced, traced] = alternate(spans, o.seconds, measure);
    std::vector<CellRef> cells;
    for (std::size_t i = 0; i < first.size(); ++i)
        cells.push_back({names[i / techs.size()], techs[i % techs.size()],
                         opts, &first[i]});
    MetricMap& m = out.layers;
    m["workload.gen_ms"].value = prep.genMs;
    m["workload.instrs"].value = static_cast<double>(prep.instrs);
    m["core.runall_ms"].value =
        medianOf(traced, [](const Pass& p) { return p.runall_ms; });
    m["core.cache_hit_frac"].value =
        medianOf(traced, [](const Pass& p) { return p.hit_frac; });
    m["core.pool_tasks"].value =
        medianOf(traced, [](const Pass& p) { return p.tasks; });
    m["core.cpu_util"].value =
        medianOf(traced, [](const Pass& p) { return p.cpu_util; });
    addModelled(m, cells);
    driveSms(cells, spans, out);
    powerAndReport(cells, spans, out);
    auto rate = [](const Pass& p) { return p.rate; };
    finishTrace(out, spans, medianOf(untraced, rate), medianOf(traced, rate));
    return out;
}

// ===================================================================
// traced_checkpoint
// ===================================================================

Outcome
runTracedCheckpoint(const RunOptions& o)
{
    Outcome out;
    out.layers = zeroLayers();
    SpanLog spans;
    spans.setEnabled(o.trace);
    ThreadPool& pool = ThreadPool::global();
    const ExperimentOptions opts = benchOptions(o.seed);
    const std::vector<std::string> benches = {"hotspot", "bfs"};
    const Technique tech = Technique::WarpedGates;
    const auto pins = loadPinned(o.pinnedPath);

    Prepared prep;
    const double setup_s = timeSetup(
        o, out, spans,
        [&](unsigned) {
            return prep = prepareCells(benches, {tech}, opts, spans);
        },
        [](unsigned) {});

    std::vector<SimResult> first(benches.size());
    std::vector<std::string> digests(benches.size());
    std::vector<std::uint64_t> trace_digests(benches.size());
    unsigned round_index = 0;

    /** One round's figures, summed over the cells (times in s). */
    struct Round
    {
        double wall = 0, instrs = 0, plain = 0, observed = 0;
        double trace_render = 0, metrics_render = 0;
        double capture = 0, encode = 0, parse = 0, restore = 0;
        double events = 0, lost = 0, trace_bytes = 0, samples = 0;
        double metrics_bytes = 0, snapshot_bytes = 0;
    };
    auto measure = [&](double seconds, std::size_t min_units) {
        std::vector<Round> rounds;
        const auto start = Clock::now();
        do {
            Round rd;
            const auto round_t0 = Clock::now();
            Span round(spans, "bench.round",
                       "round" + std::to_string(round_index));
            for (std::size_t c = 0; c < benches.size(); ++c) {
                const std::string& bench = benches[c];
                const std::string id = cellId(bench, tech, opts);
                const wg::BenchmarkProfile& profile = wg::findBenchmark(bench);
                wg::serve::wire::SnapshotIdentity ident;
                ident.bench = bench;
                ident.technique = tech;
                ident.options = opts;
                wg::GpuConfig config;
                std::string error;
                if (!wg::serve::wire::snapshotConfig(ident, config, error)) {
                    out.check(id, error);
                    continue;
                }
                const wg::Gpu gpu(config);

                // 1. No observers.
                auto t0 = Clock::now();
                SimResult plain;
                {
                    Span span(spans, "sim.Gpu::run", id + " plain");
                    plain = gpu.run(profile, &pool);
                }
                rd.plain += secondsSince(t0);
                const std::string digest = cellDigest(bench, tech, opts, plain);
                std::string why = checkCell(plain);
                if (why.empty() && round_index == 0)
                    why = pinCheck(pins, bench, tech, opts, digest);
                if (why.empty() && round_index > 0 && digest != digests[c])
                    why = "round differs from round 0";
                out.check(id + " plain", why);

                // 2. Trace and metrics collectors, rendered as jsonl.
                wg::trace::Collector tcoll;
                wg::metrics::Collector mcoll;
                t0 = Clock::now();
                SimResult observed;
                {
                    Span span(spans, "sim.Gpu::run", id + " observed");
                    observed = gpu.run(profile, &pool, &tcoll, &mcoll);
                }
                rd.observed += secondsSince(t0);
                t0 = Clock::now();
                DigestBuf tbuf;
                {
                    Span span(spans, "trace.writeJsonl", id);
                    std::ostream tos(&tbuf);
                    wg::trace::writeJsonl(tos, tcoll);
                    tos.flush();
                }
                rd.trace_render += secondsSince(t0);
                t0 = Clock::now();
                std::ostringstream mos;
                {
                    Span span(spans, "metrics.writeMetricsJsonl", id);
                    wg::metrics::writeMetricsJsonl(
                        mos, &mcoll, wg::metrics::toStatSet(observed));
                }
                rd.metrics_render += secondsSince(t0);
                rd.events += static_cast<double>(tcoll.totalEvents());
                rd.lost += static_cast<double>(tcoll.totalOverwritten());
                rd.trace_bytes += static_cast<double>(tbuf.bytes());
                rd.samples += static_cast<double>(mcoll.totalSamples());
                rd.metrics_bytes += static_cast<double>(mos.str().size());
                const std::uint64_t tdigest = tbuf.digest();
                why = cellDigest(bench, tech, opts, observed) == digest
                          ? ""
                          : "observed differs from unobserved";
                if (why.empty() && round_index > 0 &&
                    tdigest != trace_digests[c])
                    why = "trace bytes differ from round 0";
                out.check(id + " observed", why);

                // 3. Checkpoint at a mid-run epoch boundary, resume.
                const wg::Cycle epoch = config.sm.pg.epochLength;
                const wg::Cycle mid =
                    std::max<wg::Cycle>(epoch, plain.cycles / 2 / epoch * epoch);
                wg::SimSession session =
                    wg::SimSession::open(profile, config, &pool);
                {
                    Span span(spans, "sim.SimSession::runUntil", id);
                    session.runUntil(mid);
                }
                t0 = Clock::now();
                wg::GpuSnapshot snap;
                {
                    Span span(spans, "sim.SimSession::snapshot", id);
                    snap = session.snapshot();
                }
                rd.capture += secondsSince(t0);
                t0 = Clock::now();
                std::string text;
                {
                    Span span(spans, "serve.snapshotDoc", id);
                    text = wg::serve::wire::snapshotDoc(ident, snap).dump();
                }
                rd.encode += secondsSince(t0);
                rd.snapshot_bytes += static_cast<double>(text.size());

                t0 = Clock::now();
                wg::serve::Json doc;
                wg::serve::wire::SnapshotIdentity ident2;
                wg::GpuSnapshot snap2;
                wg::GpuConfig config2;
                bool parsed = false;
                {
                    Span span(spans, "serve.parseSnapshotDoc", id);
                    parsed =
                        wg::serve::Json::parse(
                            text, doc, error,
                            wg::serve::wire::snapshotJsonLimits()) &&
                        wg::serve::wire::parseSnapshotDoc(doc, ident2, snap2,
                                                          error) &&
                        wg::serve::wire::snapshotConfig(ident2, config2, error);
                }
                rd.parse += secondsSince(t0);
                if (!parsed || session.done()) {
                    out.check(id + " resumed",
                              parsed ? "drained before the checkpoint" : error);
                    continue;
                }
                t0 = Clock::now();
                std::unique_ptr<wg::SimSession> resumed;
                {
                    Span span(spans, "sim.SimSession::restore", id);
                    resumed = wg::SimSession::restore(
                        snap2, wg::findBenchmark(ident2.bench), config2,
                        &pool, nullptr, nullptr, &error);
                }
                rd.restore += secondsSince(t0);
                if (resumed == nullptr) {
                    out.check(id + " resumed", error);
                    continue;
                }
                SimResult finished;
                {
                    Span span(spans, "sim.SimSession::result", id);
                    finished = resumed->result();
                }
                out.check(id + " resumed",
                          cellDigest(bench, tech, opts, finished) == digest
                              ? ""
                              : "resumed differs from unsplit");

                rd.instrs += 3.0 * static_cast<double>(plain.aggregate.issuedTotal);
                if (round_index == 0) {
                    first[c] = plain;
                    digests[c] = digest;
                    trace_digests[c] = tdigest;
                }
            }
            rd.wall = secondsSince(round_t0);
            out.unitRates.push_back(rd.instrs / rd.wall);
            rounds.push_back(rd);
            ++round_index;
        } while (secondsSince(start) < seconds ||
                 rounds.size() < min_units);
        return rounds;
    };

    auto rate = [](const Round& r) { return r.instrs / r.wall; };
    const double n = static_cast<double>(benches.size());

    if (!o.trace) {
        const std::vector<Round> rs = measure(o.seconds, kMinUnits);
        commonE2e(out, medianOf(rs, rate), setup_s);
        setE2e(out, "observe_overhead_x",
               medianOf(rs,
                   [](const Round& r) {
                       return (r.observed + r.trace_render + r.metrics_render) /
                              r.plain;
                   }),
               "x");
        setE2e(out, "checkpoint_ms",
               medianOf(rs, [n](const Round& r) {
                   return (r.capture + r.encode) * 1e3 / n;
               }),
               "ms");
        setE2e(out, "resume_ms",
               medianOf(rs, [n](const Round& r) {
                   return (r.parse + r.restore) * 1e3 / n;
               }),
               "ms");
        return out;
    }

    const auto [untraced, rs] = alternate(spans, o.seconds, measure);
    std::vector<CellRef> cells;
    for (std::size_t c = 0; c < benches.size(); ++c)
        cells.push_back({benches[c], tech, opts, &first[c]});
    MetricMap& m = out.layers;
    m["workload.gen_ms"].value = prep.genMs;
    m["workload.instrs"].value = static_cast<double>(prep.instrs);
    m["sim.restore_ms"].value =
        medianOf(rs, [n](const Round& r) { return r.restore * 1e3 / n; });
    const Round& r0 = rs.front();
    m["trace.events"].value = r0.events;
    m["trace.lost_frac"].value =
        r0.events + r0.lost > 0 ? r0.lost / (r0.events + r0.lost) : 0;
    const double record_ms = medianOf(
        rs, [](const Round& r) { return (r.observed - r.plain) * 1e3; });
    const double render_ms =
        medianOf(rs, [](const Round& r) { return r.trace_render * 1e3; });
    m["trace.record_ms"].value = record_ms;
    m["trace.render_ms"].value = render_ms;
    m["trace.bytes"].value = r0.trace_bytes;
    m["trace.ns_per_event"].value =
        r0.events > 0 ? (record_ms + render_ms) * 1e6 / r0.events : 0;
    m["metrics.samples"].value = r0.samples;
    m["metrics.render_ms"].value =
        medianOf(rs, [](const Round& r) { return r.metrics_render * 1e3; });
    m["metrics.bytes"].value = r0.metrics_bytes;
    m["serve.snapshot_encode_ms"].value =
        medianOf(rs, [n](const Round& r) { return r.encode * 1e3 / n; });
    m["serve.snapshot_parse_ms"].value =
        medianOf(rs, [n](const Round& r) { return r.parse * 1e3 / n; });
    m["serve.snapshot_bytes"].value = r0.snapshot_bytes / n;
    addModelled(m, cells);
    driveSms(cells, spans, out);
    powerAndReport(cells, spans, out);
    finishTrace(out, spans, medianOf(untraced, rate), medianOf(rs, rate));
    return out;
}

// ===================================================================
// served_jobs
// ===================================================================

namespace {

/** An in-process daemon on a loopback ephemeral port plus K clients. */
class ServedRig
{
  public:
    ServedRig() = default;
    ServedRig(const ServedRig&) = delete;
    ServedRig& operator=(const ServedRig&) = delete;
    ~ServedRig() { stop(); }

    bool
    start(const ExperimentOptions& opts, unsigned clients,
          std::string& error)
    {
        runner_ = std::make_unique<ExperimentRunner>(opts, &ThreadPool::global());
        server_ = std::make_unique<wg::serve::Server>(*runner_);
        if (!server_->start(error))
            return false;
        thread_ = std::thread([this] {
            std::string serve_error;
            server_->serve(-1, serve_error);
        });
        for (unsigned k = 0; k < clients; ++k) {
            clients_.push_back(std::make_unique<wg::serve::Client>());
            if (!clients_.back()->connect(server_->port(), 2000, error))
                return false;
        }
        return true;
    }

    /** Drain the daemon and join its thread (idempotent). */
    void
    stop()
    {
        if (thread_.joinable()) {
            std::string error;
            wg::serve::Client closer;
            if (!closer.connect(server_->port(), 2000, error) ||
                !closer.drain(600000, error))
                wg::fatal("perfbench: cannot drain the daemon: ", error);
            thread_.join();
        }
        clients_.clear();
        server_.reset();
        runner_.reset();
    }

    ExperimentRunner& runner() { return *runner_; }
    wg::serve::Server& server() { return *server_; }
    wg::serve::Client& client(unsigned k) { return *clients_[k]; }

  private:
    std::unique_ptr<ExperimentRunner> runner_;
    std::unique_ptr<wg::serve::Server> server_;
    std::thread thread_;
    std::vector<std::unique_ptr<wg::serve::Client>> clients_;
};

/** One served job as the client saw it. */
struct JobSample
{
    std::size_t plan = 0;
    double latencyMs = 0, submitMs = 0, resultsMs = 0;
    bool deduped = false;
    std::string error; ///< "" when the round trips succeeded
    std::string key;   ///< cell id
    std::string digest;
    double issued = 0;
};

ExperimentOptions
cellOptions(const ExperimentOptions& base, const Submission& s)
{
    ExperimentOptions o = base;
    o.seed = s.cellSeed;
    return o;
}

/** One closed-loop job: submit, wait as `wgctl submit --wait`, fetch. */
JobSample
runJob(wg::serve::Client& client, const ExperimentOptions& base,
       const Submission& s, std::size_t i, SpanLog& spans)
{
    JobSample js;
    js.plan = i;
    const ExperimentOptions opts = cellOptions(base, s);
    js.key = cellId(s.bench, s.technique, opts);
    Span job(spans, "bench.job", "plan" + std::to_string(i) + " " + js.key, 0);
    const wg::SweepSpec spec(
        {s.bench}, {s.technique},
        s.kind == SubmitKind::Alias ? std::nullopt
                                    : std::optional<ExperimentOptions>(opts));
    std::string id, error;
    wg::serve::JobStatus status;
    std::vector<wg::serve::wire::ResultCell> cells;
    const auto t0 = Clock::now();
    bool ok = false;
    {
        Span span(spans, "serve.Client::submit", js.key);
        ok = client.submit(spec, 0, id, js.deduped, error);
    }
    js.submitMs = secondsSince(t0) * 1e3;
    if (ok) {
        Span span(spans, "serve.Client::waitForJob", id);
        ok = client.waitForJob(id, kWaitPollMs, 600000, status, error);
        if (ok && status.state != wg::serve::JobState::Done) {
            ok = false;
            error = std::string("job finished as ") +
                    wg::serve::jobStateName(status.state);
        }
    }
    const auto t1 = Clock::now();
    if (ok) {
        Span span(spans, "serve.Client::results", id);
        ok = client.results(id, cells, error);
    }
    js.resultsMs = secondsSince(t1) * 1e3;
    js.latencyMs = secondsSince(t0) * 1e3;
    if (ok && cells.size() != 1) {
        ok = false;
        error = "expected one result cell";
    }
    if (!ok) {
        js.error = error;
        return js;
    }
    const wg::serve::wire::ResultCell& cell = cells[0];
    if (cell.bench != s.bench || cell.technique != s.technique ||
        cell.options.seed != opts.seed) {
        js.error = "result is for another cell";
        return js;
    }
    js.error = checkCell(cell.result);
    js.digest = cellDigest(cell.bench, cell.technique, cell.options,
                           cell.result);
    js.issued = static_cast<double>(cell.result.aggregate.issuedTotal);
    return js;
}

} // namespace

Outcome
runServedJobs(const RunOptions& o)
{
    Outcome out;
    out.layers = zeroLayers();
    SpanLog spans;
    spans.setEnabled(o.trace);
    ThreadPool& pool = ThreadPool::global();
    const ExperimentOptions opts = benchOptions(o.seed);
    const unsigned clients =
        std::max(1u, std::min(kMaxClients, std::thread::hardware_concurrency()));
    const std::vector<Submission> plan = planServedJobs(o.seed, 20000);
    const auto pins = loadPinned(o.pinnedPath);

    // Set-up: programs and configs of the default-seed grid, then the
    // daemon's start and its clients' connections.
    Prepared prep;
    auto rig = std::make_unique<ServedRig>();
    const double setup_s = timeSetup(
        o, out, spans,
        [&](unsigned) {
            prep = prepareCells(wg::benchmarkNames(), wg::allTechniques(),
                                opts, spans);
            std::string error;
            Span span(spans, "serve.Server::start");
            if (!rig->start(opts, clients, error))
                wg::fatal("perfbench: cannot start the daemon: ", error);
            return prep;
        },
        [&](unsigned k) {
            if (k + 1 < kSetupRepeats)
                rig = std::make_unique<ServedRig>();
        });

    struct Phase
    {
        std::vector<JobSample> jobs;
        double seconds = 0;
        wg::serve::LatencySnapshot before, after;
        std::uint64_t tasks = 0;
        double cpu = 0;
        wg::CacheStats cache;
    };
    auto measure = [&](double seconds) {
        Phase ph;
        ph.before = rig->server().jobs().latencySnapshot();
        const std::uint64_t tasks0 = pool.stats().tasksExecuted;
        const double cpu0 = cpuSeconds();
        std::atomic<std::size_t> next{0};
        std::vector<std::atomic<bool>> finished(plan.size());
        std::vector<std::vector<JobSample>> per_client(clients);
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        std::vector<std::thread> threads;
        for (unsigned k = 0; k < clients; ++k)
            threads.emplace_back([&, k] {
                while (Clock::now() < deadline) {
                    const std::size_t i = next++;
                    if (i >= plan.size())
                        break;
                    // An Alias reaches the runner under a new job key.
                    // While its cell is still computing for the repeated
                    // job, a pool thread that helps in wait() can pick
                    // up the Alias job and block on the cache entry it
                    // owns itself, which hangs the daemon (README.md).
                    // So an Alias waits, outside its latency, until the
                    // job it repeats has finished.
                    if (plan[i].kind == SubmitKind::Alias)
                        while (!finished[plan[i].repeats].load())
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                    per_client[k].push_back(
                        runJob(rig->client(k), opts, plan[i], i, spans));
                    finished[i].store(true);
                }
            });
        for (std::thread& t : threads)
            t.join();
        ph.seconds = secondsSince(start);
        ph.after = rig->server().jobs().latencySnapshot();
        ph.tasks = pool.stats().tasksExecuted - tasks0;
        ph.cpu = cpuSeconds() - cpu0;
        ph.cache = rig->runner().cacheStats();
        for (auto& v : per_client)
            for (JobSample& js : v)
                ph.jobs.push_back(std::move(js));
        std::sort(ph.jobs.begin(), ph.jobs.end(),
                  [](const JobSample& a, const JobSample& b) {
                      return a.plan < b.plan;
                  });
        return ph;
    };

    /** Offline twins of every served cell: K closed-loop callers. */
    struct Offline
    {
        std::map<std::string, double> latencyMs;
        std::map<std::string, std::string> digest;
        std::map<std::string, std::shared_ptr<const SimResult>> result;
    };
    std::vector<Submission> offline_cells;
    auto runOffline = [&](const Phase& ph) {
        Offline off;
        std::set<std::string> seen;
        offline_cells.clear();
        for (const JobSample& js : ph.jobs)
            if (seen.insert(js.key).second)
                offline_cells.push_back(plan[js.plan]);
        std::vector<double> lat(offline_cells.size());
        std::vector<std::shared_ptr<const SimResult>> res(offline_cells.size());
        ExperimentRunner runner(opts, &pool); // the offline path: cold
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        for (unsigned k = 0; k < clients; ++k)
            threads.emplace_back([&] {
                for (std::size_t i = next++; i < offline_cells.size();
                     i = next++) {
                    const Submission& s = offline_cells[i];
                    const ExperimentOptions co = cellOptions(opts, s);
                    Span span(spans, "core.ExperimentRunner::runShared",
                              cellId(s.bench, s.technique, co), 0);
                    const auto t0 = Clock::now();
                    res[i] = runner.runShared(s.bench, s.technique, co);
                    lat[i] = secondsSince(t0) * 1e3;
                }
            });
        for (std::thread& t : threads)
            t.join();
        for (std::size_t i = 0; i < offline_cells.size(); ++i) {
            const Submission& s = offline_cells[i];
            const ExperimentOptions co = cellOptions(opts, s);
            const std::string key = cellId(s.bench, s.technique, co);
            off.latencyMs[key] = lat[i];
            off.result[key] = res[i];
            off.digest[key] = cellDigest(s.bench, s.technique, co, *res[i]);
        }
        return off;
    };

    /** Check every served job against its offline twin and the pins. */
    auto checkJobs = [&](const Phase& ph, const Offline& off) {
        for (const JobSample& js : ph.jobs) {
            std::string why = js.error;
            const Submission& s = plan[js.plan];
            if (why.empty() && js.digest != off.digest.at(js.key))
                why = "served differs from offline";
            if (why.empty())
                why = pinCheck(pins, s.bench, s.technique,
                               cellOptions(opts, s), js.digest);
            out.check("job plan" + std::to_string(js.plan) + " " + js.key,
                      why);
        }
    };
    auto instrRate = [](const Phase& ph) {
        double instrs = 0;
        for (const JobSample& js : ph.jobs)
            instrs += js.issued;
        return instrs / ph.seconds;
    };

    if (!o.trace) {
        const Phase ph = measure(o.seconds * 2.0 / 3.0);
        rig->stop();
        const Offline off = runOffline(ph);
        checkJobs(ph, off);
        out.unitRates.push_back(instrRate(ph));
        commonE2e(out, instrRate(ph), setup_s);
        std::vector<double> all, served_new, offline_new;
        for (const JobSample& js : ph.jobs) {
            all.push_back(js.latencyMs);
            if (plan[js.plan].kind == SubmitKind::New && !js.deduped &&
                js.error.empty()) {
                served_new.push_back(js.latencyMs);
                offline_new.push_back(off.latencyMs.at(js.key));
            }
        }
        setE2e(out, "job_p50_ms", median(all), "ms");
        const double tail = tailPercentile(all.size());
        if (tail > 50) {
            std::ostringstream name;
            name << "job_p" << tail << "_ms";
            setE2e(out, name.str(), percentile(all, tail), "ms");
        }
        setE2e(out, "job_samples", static_cast<double>(all.size()), "count");
        setE2e(out, "served_over_offline_x",
               median(offline_new) > 0
                   ? median(served_new) / median(offline_new)
                   : 0.0,
               "x");
        return out;
    }

    spans.setEnabled(false);
    const Phase untraced = measure(o.seconds / 3);
    rig->stop();
    rig = std::make_unique<ServedRig>(); // cold again for the traced half
    {
        std::string error;
        if (!rig->start(opts, clients, error))
            wg::fatal("perfbench: cannot start the daemon: ", error);
    }
    spans.setEnabled(true);
    const Phase ph = measure(o.seconds / 3);
    rig->stop();
    const Offline off = runOffline(ph);
    checkJobs(ph, off);

    MetricMap& m = out.layers;
    m["workload.gen_ms"].value = prep.genMs;
    m["workload.instrs"].value = static_cast<double>(prep.instrs);
    m["core.pool_tasks"].value = static_cast<double>(ph.tasks);
    m["core.cpu_util"].value = ph.cpu / (ph.seconds * pool.size());
    m["core.cache_hit_frac"].value =
        ratio(static_cast<double>(ph.cache.hits),
              static_cast<double>(ph.cache.hits + ph.cache.misses));
    std::vector<double> submit, results;
    double dedup = 0, fresh_ms = 0, fresh = 0;
    for (const JobSample& js : ph.jobs) {
        submit.push_back(js.submitMs);
        results.push_back(js.resultsMs);
        if (js.deduped) {
            ++dedup;
        } else {
            fresh_ms += js.latencyMs;
            ++fresh;
        }
    }
    auto histMeanMs = [](const wg::LatencyHistogram& before,
                         const wg::LatencyHistogram& after) {
        const double n = static_cast<double>(after.total() - before.total());
        return n > 0 ? (after.sum() - before.sum()) * 1e3 / n : 0.0;
    };
    m["serve.submit_ms"].value = wg::mean(submit);
    m["serve.results_ms"].value = wg::mean(results);
    m["serve.admission_wait_ms"].value =
        histMeanMs(ph.before.admissionWait, ph.after.admissionWait);
    m["serve.dedup_hits"].value = dedup;
    m["serve.delivery_ms"].value =
        (fresh > 0 ? fresh_ms / fresh : 0.0) -
        histMeanMs(ph.before.endToEnd, ph.after.endToEnd);

    std::vector<CellRef> cells;
    for (const Submission& s : offline_cells) {
        const ExperimentOptions co = cellOptions(opts, s);
        cells.push_back({s.bench, s.technique, co,
                         off.result.at(cellId(s.bench, s.technique, co)).get()});
    }
    addModelled(m, cells);
    driveSms(cells, spans, out);
    powerAndReport(cells, spans, out);
    finishTrace(out, spans, instrRate(untraced), instrRate(ph));
    return out;
}

} // namespace perfbench
