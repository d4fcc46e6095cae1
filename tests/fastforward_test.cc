/**
 * @file
 * Locks in the event-horizon fast-forward guarantee: running with
 * SmConfig::fastForward on must produce a SimResult, metrics files and
 * event-trace stream byte-identical to the cycle-by-cycle path — for
 * every technique, across serial and pooled execution, on randomized
 * configurations, and on truncated (maxCycles) runs. Fast-forward is
 * purely a wall-clock optimisation, never a result change.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "sim/gpu.hh"
#include "trace/sink.hh"
#include "workload/generator.hh"

namespace wg {
namespace {

GpuConfig
ffConfig(Technique t, bool fast_forward, unsigned sms = 2)
{
    ExperimentOptions opts;
    opts.numSms = sms;
    GpuConfig config = makeConfig(t, opts);
    config.sm.fastForward = fast_forward;
    return config;
}

BenchmarkProfile
profile(const char* name, int kernel_length = 400, int warps = 16)
{
    BenchmarkProfile p = findBenchmark(name);
    p.kernelLength = kernel_length;
    p.residentWarps = warps;
    return p;
}

/**
 * Run @p profile twice — fast-forward off (reference) and on — and
 * require every observable output to match byte for byte: the core
 * result fields, all three metrics serialisations (with their epoch
 * series), and the JSONL event trace.
 */
void
expectFastForwardIdentical(const GpuConfig& reference_config,
                           const BenchmarkProfile& p,
                           ThreadPool* pool = nullptr,
                           const trace::RecorderConfig& ring = {})
{
    GpuConfig ff_config = reference_config;
    ff_config.sm.fastForward = true;
    GpuConfig ref_config = reference_config;
    ref_config.sm.fastForward = false;

    trace::Collector ref_trace(ring), ff_trace(ring);
    metrics::Collector ref_metrics, ff_metrics;
    SimResult ref =
        Gpu(ref_config).run(p, pool, &ref_trace, &ref_metrics);
    SimResult ff = Gpu(ff_config).run(p, pool, &ff_trace, &ff_metrics);

    EXPECT_EQ(ref.cycles, ff.cycles);
    EXPECT_EQ(ref.totalSmCycles, ff.totalSmCycles);
    EXPECT_EQ(ref.aggregate.issuedTotal, ff.aggregate.issuedTotal);
    EXPECT_EQ(ref.aggregate.completed, ff.aggregate.completed);

    StatSet ref_set = metrics::toStatSet(ref);
    StatSet ff_set = metrics::toStatSet(ff);
    for (metrics::MetricsFormat format :
         {metrics::MetricsFormat::Jsonl, metrics::MetricsFormat::Csv,
          metrics::MetricsFormat::Prom}) {
        std::ostringstream ref_os, ff_os;
        metrics::writeMetrics(ref_os, &ref_metrics, ref_set, format);
        metrics::writeMetrics(ff_os, &ff_metrics, ff_set, format);
        EXPECT_EQ(ref_os.str(), ff_os.str())
            << metrics::metricsFormatName(format);
    }

    std::ostringstream ref_os, ff_os;
    trace::writeJsonl(ref_os, ref_trace);
    trace::writeJsonl(ff_os, ff_trace);
    EXPECT_EQ(ref_os.str(), ff_os.str());
}

TEST(FastForward, AllTechniquesBitIdenticalHotspot)
{
    for (Technique t : allTechniques()) {
        SCOPED_TRACE(techniqueName(t));
        expectFastForwardIdentical(ffConfig(t, true), profile("hotspot"));
    }
}

TEST(FastForward, AllTechniquesBitIdenticalMemoryHeavy)
{
    // nw is the suite's most memory-bound profile (miss ratio 0.70,
    // dependence probability 0.65): long MSHR-limited stall spans are
    // exactly where the horizon jumps are biggest.
    for (Technique t : allTechniques()) {
        SCOPED_TRACE(techniqueName(t));
        expectFastForwardIdentical(ffConfig(t, true), profile("nw"));
    }
}

TEST(FastForward, PooledMatchesSerialAndReference)
{
    // The pooled path must keep both guarantees at once: pooled+FF ==
    // serial+FF == serial reference.
    GpuConfig config = ffConfig(Technique::WarpedGates, true, 4);
    BenchmarkProfile p = profile("nw");
    expectFastForwardIdentical(config, p, &ThreadPool::global());

    SimResult serial = Gpu(config).run(p, nullptr);
    SimResult pooled = Gpu(config).run(p, &ThreadPool::global());
    EXPECT_EQ(serial.cycles, pooled.cycles);
    EXPECT_EQ(serial.aggregate.issuedTotal, pooled.aggregate.issuedTotal);
}

TEST(FastForward, RandomizedConfigsBitIdentical)
{
    // Deterministic fuzz: random PG windows, technique, scheduler,
    // issue width, MSHR pool, SM count and workload shape. Any
    // divergence between the analytic replay and the stepped path shows
    // up as a byte diff here. The quiescence proof and the issue stage
    // share one verdict function, so small pools (reject-heavy spans)
    // and widths 1 and 3 exercise both.
    Rng rng(0x57a71c5eedULL);
    const char* benches[] = {"hotspot", "nw", "bfs", "NN"};
    const SchedulerPolicy schedulers[] = {SchedulerPolicy::TwoLevel,
                                          SchedulerPolicy::Gates,
                                          SchedulerPolicy::Gto};
    for (int trial = 0; trial < 12; ++trial) {
        SCOPED_TRACE(trial);
        const auto& techs = allTechniques();
        Technique t = techs[rng.nextRange(techs.size())];
        ExperimentOptions opts;
        opts.numSms = 1 + static_cast<unsigned>(rng.nextRange(2));
        opts.seed = 100 + static_cast<std::uint64_t>(trial);
        opts.idleDetect = 1 + rng.nextRange(12);
        opts.breakEven = 1 + rng.nextRange(30);
        opts.wakeupDelay = 1 + rng.nextRange(6);
        GpuConfig config = makeConfig(t, opts);
        // Rotated rather than drawn, so every policy gets 4 trials.
        config.sm.scheduler = schedulers[trial % 3];
        config.sm.issueWidth = 1 + static_cast<unsigned>(rng.nextRange(3));
        config.sm.mem.mshrLimit =
            2 + static_cast<unsigned>(rng.nextRange(15));
        SCOPED_TRACE(std::string(schedulerPolicyName(config.sm.scheduler)) +
                     " w" + std::to_string(config.sm.issueWidth) +
                     " mshr" + std::to_string(config.sm.mem.mshrLimit));

        BenchmarkProfile p =
            profile(benches[rng.nextRange(4)],
                    200 + static_cast<int>(rng.nextRange(400)),
                    4 + static_cast<int>(rng.nextRange(24)));
        expectFastForwardIdentical(config, p);
    }
}

TEST(FastForward, TruncatedRunBitIdentical)
{
    // A horizon clamped by maxCycles must stop on exactly the same
    // cycle, with exactly the same partial counters, as the stepped
    // path hitting the safety stop.
    GpuConfig config = ffConfig(Technique::WarpedGates, true);
    config.sm.maxCycles = 3000;
    expectFastForwardIdentical(config, profile("nw", 4000, 8));
}

TEST(FastForward, EngagesOnMemoryBoundWorkload)
{
    // The optimisation must actually fire where it matters; otherwise
    // the identity tests above would pass vacuously.
    GpuConfig config = ffConfig(Technique::WarpedGates, true, 1);
    ProgramGenerator gen(config.seed);
    Sm sm(config.sm, gen.generateSm(profile("nw"), 0),
          Gpu::smSeed(config.seed, 0));
    sm.run();
    EXPECT_GT(sm.ffSkippedCycles(), 0u);
    EXPECT_GT(sm.ffSpans(), 0u);
    EXPECT_GE(sm.ffSkippedCycles(), sm.ffSpans());
}

TEST(FastForward, ProfileSectionSumsCoverageOverSms)
{
    // The opt-in profile section carries each SM's span diagnostics,
    // summed; with fast-forward off there is nothing to count.
    for (bool ff : {true, false}) {
        SCOPED_TRACE(ff ? "ff on" : "ff off");
        GpuConfig config = ffConfig(Technique::WarpedGates, ff);
        const BenchmarkProfile p = profile("nw");
        metrics::Collector mets;
        Gpu(config).run(p, nullptr, nullptr, &mets);

        std::uint64_t skipped = 0, spans = 0;
        ProgramGenerator gen(config.seed);
        for (unsigned s = 0; s < config.numSms; ++s) {
            Sm sm(config.sm, gen.generateSm(p, s),
                  Gpu::smSeed(config.seed, s));
            sm.run();
            skipped += sm.ffSkippedCycles();
            spans += sm.ffSpans();
        }
        EXPECT_EQ(mets.ffSkippedCycles, skipped);
        EXPECT_EQ(mets.ffSpans, spans);
        EXPECT_EQ(skipped > 0, ff);
    }
}

TEST(FastForward, WrappedRingBitIdentical)
{
    // A ring that wraps mid-run, inside replayed MSHR-reject spans and
    // GATES blackout flip-flops: the retained window and the loss
    // count must match the stepped path too.
    trace::RecorderConfig ring;
    ring.capacity = 4096;
    for (const char* bench : {"nw", "bfs"}) {
        for (Technique t : {Technique::WarpedGates, Technique::Gates}) {
            SCOPED_TRACE(std::string(bench) + " " + techniqueName(t));
            expectFastForwardIdentical(ffConfig(t, true),
                                       findBenchmark(bench), nullptr, ring);
        }
    }
}

TEST(FastForward, TracedSkipsLikeUntraced)
{
    // A recorder must not cost fast-forward any span: traced runs
    // replay MSHR rejects, GATES' blackout flip-flop switches and the
    // LD/ST idle run instead of stepping them. Full-length nw and bfs
    // stall on a full MSHR pool and (under GATES and WarpedGates) hit
    // the flip-flop inside spans.
    for (const char* bench : {"nw", "bfs"}) {
        for (Technique t : {Technique::WarpedGates, Technique::Gates}) {
            SCOPED_TRACE(std::string(bench) + " " + techniqueName(t));
            GpuConfig config = ffConfig(t, true, 1);
            ProgramGenerator gen(config.seed);
            const std::vector<Program> programs =
                gen.generateSm(findBenchmark(bench), 0);
            Sm untraced(config.sm, programs, Gpu::smSeed(config.seed, 0));
            untraced.run();
            trace::Recorder rec(0, 4096);
            Sm traced(config.sm, programs, Gpu::smSeed(config.seed, 0),
                      &rec);
            traced.run();

            EXPECT_GT(untraced.ffSpans(), 0u);
            EXPECT_EQ(traced.ffSkippedCycles(), untraced.ffSkippedCycles());
            EXPECT_EQ(traced.ffSpans(), untraced.ffSpans());
            EXPECT_GT(traced.stats().mshrRejects, 0u);
            EXPECT_GT(traced.stats().prioritySwitches, 0u);
        }
    }
}

TEST(FastForward, DisabledNeverSkips)
{
    GpuConfig config = ffConfig(Technique::WarpedGates, false, 1);
    ProgramGenerator gen(config.seed);
    Sm sm(config.sm, gen.generateSm(profile("nw"), 0),
          Gpu::smSeed(config.seed, 0));
    sm.run();
    EXPECT_EQ(sm.ffSkippedCycles(), 0u);
    EXPECT_EQ(sm.ffSpans(), 0u);
}

} // namespace
} // namespace wg
