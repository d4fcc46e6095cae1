/**
 * @file
 * Metrics pipeline tests: PgDomainStats merge, the epoch sampler
 * (delta correctness, boundary alignment with the adaptive epoch
 * clock), the StatSet registry conversion, the three exporters
 * (golden files + load round-trips), the comparison engine behind
 * wgreport, and the self-profiling timers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "metrics/compare.hh"
#include "metrics/exporters.hh"
#include "metrics/loader.hh"
#include "metrics/phase_timer.hh"
#include "metrics/registry.hh"
#include "metrics/sampler.hh"
#include "sim/gpu.hh"
#include "trace/recorder.hh"

namespace wg {
namespace {

GpuConfig
config(unsigned sms)
{
    ExperimentOptions opts;
    opts.numSms = sms;
    return makeConfig(Technique::WarpedGates, opts);
}

BenchmarkProfile
profile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

// ---- PgDomainStats merge (from its field list) ----

TEST(PgDomainStatsMerge, SumsEveryCounter)
{
    PgDomainStats a;
    a.busyCycles = 1;
    a.idleOnCycles = 2;
    a.uncompCycles = 3;
    a.compCycles = 4;
    a.wakeupCycles = 5;
    a.gatingEvents = 6;
    a.wakeups = 7;
    a.uncompWakeups = 8;
    a.criticalWakeups = 9;
    a.coordImmediateGates = 10;
    a.coordGateVetoes = 11;

    PgDomainStats b = a;
    mergeFields(b, a);
    EXPECT_EQ(b.busyCycles, 2u);
    EXPECT_EQ(b.idleOnCycles, 4u);
    EXPECT_EQ(b.uncompCycles, 6u);
    EXPECT_EQ(b.compCycles, 8u);
    EXPECT_EQ(b.wakeupCycles, 10u);
    EXPECT_EQ(b.gatingEvents, 12u);
    EXPECT_EQ(b.wakeups, 14u);
    EXPECT_EQ(b.uncompWakeups, 16u);
    EXPECT_EQ(b.criticalWakeups, 18u);
    EXPECT_EQ(b.coordImmediateGates, 20u);
    EXPECT_EQ(b.coordGateVetoes, 22u);
    EXPECT_EQ(b.gatedCycles(), a.gatedCycles() * 2);
}

TEST(PgDomainStatsMerge, TypeStatsEqualsManualClusterSum)
{
    Gpu gpu(config(2));
    SimResult r = gpu.run(profile(), nullptr);
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        unsigned t = uc == UnitClass::Int ? 0 : 1;
        PgDomainStats sum = r.typeStats(uc);
        const PgDomainStats& c0 = r.aggregate.clusters[t][0].pg;
        const PgDomainStats& c1 = r.aggregate.clusters[t][1].pg;
        EXPECT_EQ(sum.busyCycles, c0.busyCycles + c1.busyCycles);
        EXPECT_EQ(sum.wakeups, c0.wakeups + c1.wakeups);
        EXPECT_EQ(sum.gatingEvents,
                  c0.gatingEvents + c1.gatingEvents);
        EXPECT_EQ(sum.coordGateVetoes,
                  c0.coordGateVetoes + c1.coordGateVetoes);
    }
}

// ---- epoch sampler ----

TEST(EpochSampler, StoresDeltasAndGauges)
{
    metrics::EpochSampler sampler(0, 100);
    metrics::EpochCounters cum;
    cum.issued = 10;
    cum.intBusyCycles = 3;
    cum.intIdleDetect = 5;
    sampler.sample(100, cum);

    cum.issued = 25;
    cum.intBusyCycles = 3;
    cum.intIdleDetect = 8; // gauge: new value, not a delta
    sampler.sample(200, cum);

    ASSERT_EQ(sampler.samples().size(), 2u);
    const metrics::EpochSample& s0 = sampler.samples()[0];
    EXPECT_EQ(s0.epoch, 0u);
    EXPECT_EQ(s0.cycleEnd, 100u);
    EXPECT_EQ(s0.cycles, 100u);
    EXPECT_EQ(s0.delta.issued, 10u);
    EXPECT_EQ(s0.delta.intBusyCycles, 3u);
    EXPECT_EQ(s0.delta.intIdleDetect, 5u);

    const metrics::EpochSample& s1 = sampler.samples()[1];
    EXPECT_EQ(s1.epoch, 1u);
    EXPECT_EQ(s1.delta.issued, 15u);
    EXPECT_EQ(s1.delta.intBusyCycles, 0u);
    EXPECT_EQ(s1.delta.intIdleDetect, 8u);
}

TEST(EpochSampler, FinalizeFlushesPartialEpochOnce)
{
    metrics::EpochSampler sampler(0, 100);
    metrics::EpochCounters cum;
    cum.issued = 4;
    sampler.sample(100, cum);

    cum.issued = 9;
    sampler.finalize(142, cum);
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_EQ(sampler.samples()[1].cycleEnd, 142u);
    EXPECT_EQ(sampler.samples()[1].cycles, 42u);
    EXPECT_EQ(sampler.samples()[1].delta.issued, 5u);

    // Idempotent: a second finalize at the same cycle adds nothing.
    sampler.finalize(142, cum);
    EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(EpochCollector, PrepareResolvesEpochLength)
{
    metrics::Collector by_config;
    by_config.prepare(2, 500);
    EXPECT_EQ(by_config.epochLength(), 500u);
    EXPECT_EQ(by_config.numSms(), 2u);
    ASSERT_NE(by_config.sampler(1), nullptr);
    EXPECT_EQ(by_config.sampler(2), nullptr);

    metrics::Collector fallback;
    fallback.prepare(1, 0);
    EXPECT_EQ(fallback.epochLength(), 1000u);
}

TEST(EpochSeries, DeltasSumToFinalAggregate)
{
    Gpu gpu(config(3));
    metrics::Collector mets;
    SimResult r = gpu.run(profile(), nullptr, nullptr, &mets);
    ASSERT_GT(mets.totalSamples(), 0u);
    ASSERT_EQ(mets.numSms(), 3u);

    std::uint64_t issued = 0, int_busy = 0, fp_busy = 0;
    std::uint64_t misses = 0, rejects = 0, wakeup_reqs = 0;
    std::uint64_t active_accum = 0, critical_int = 0;
    for (SmId sm = 0; sm < mets.numSms(); ++sm) {
        const metrics::EpochSampler* s = mets.sampler(sm);
        ASSERT_NE(s, nullptr);
        std::uint64_t sm_cycles = 0;
        for (const metrics::EpochSample& e : s->samples()) {
            issued += e.delta.issued;
            int_busy += e.delta.intBusyCycles;
            fp_busy += e.delta.fpBusyCycles;
            misses += e.delta.memMisses;
            rejects += e.delta.mshrRejects;
            wakeup_reqs += e.delta.wakeupRequests;
            active_accum += e.delta.activeAccum;
            critical_int += e.delta.intCriticalWakeups;
            sm_cycles += e.cycles;
        }
        // The series tiles the SM's run exactly: per-epoch cycle
        // counts sum to the SM's runtime and the last sample ends at
        // the final cycle.
        EXPECT_EQ(sm_cycles, r.smCycles[sm]) << "SM " << sm;
        EXPECT_EQ(s->samples().back().cycleEnd, r.smCycles[sm]);
    }

    EXPECT_EQ(issued, r.aggregate.issuedTotal);
    EXPECT_EQ(int_busy, r.typeStats(UnitClass::Int).busyCycles);
    EXPECT_EQ(fp_busy, r.typeStats(UnitClass::Fp).busyCycles);
    EXPECT_EQ(critical_int,
              r.typeStats(UnitClass::Int).criticalWakeups);
    EXPECT_EQ(misses, r.aggregate.memMisses);
    EXPECT_EQ(rejects, r.aggregate.mshrRejects);
    EXPECT_EQ(wakeup_reqs, r.aggregate.wakeupRequests);
    EXPECT_EQ(active_accum, r.aggregate.activeSizeAccum);
}

TEST(EpochSeries, BoundariesAlignWithAdaptiveEpochUpdates)
{
    // WarpedGates runs adaptive idle detect; its EpochUpdate trace
    // events fire on the same (now+1) % epochLength == 0 boundary the
    // sampler uses, so every adaptive update must land exactly on a
    // sample edge.
    GpuConfig cfg = config(2);
    ASSERT_TRUE(cfg.sm.pg.adaptiveIdleDetect);
    Gpu gpu(cfg);
    trace::Collector traces;
    metrics::Collector mets;
    SimResult r = gpu.run(profile(), nullptr, &traces, &mets);
    (void)r;

    const Cycle epoch = mets.epochLength();
    EXPECT_EQ(epoch, cfg.sm.pg.epochLength);
    std::size_t updates = 0;
    for (SmId sm = 0; sm < mets.numSms(); ++sm) {
        const metrics::EpochSampler* sampler = mets.sampler(sm);
        ASSERT_NE(sampler, nullptr);
        std::set<Cycle> edges;
        for (const metrics::EpochSample& s : sampler->samples()) {
            // Every edge except a trailing partial epoch sits on the
            // epoch grid.
            if (&s != &sampler->samples().back()) {
                EXPECT_EQ(s.cycleEnd % epoch, 0u);
                EXPECT_EQ(s.cycles, epoch);
            }
            edges.insert(s.cycleEnd);
        }
        const trace::Recorder* rec = traces.recorder(sm);
        ASSERT_NE(rec, nullptr);
        rec->forEach([&](const trace::Event& e) {
            if (e.kind != trace::EventKind::EpochUpdate)
                return;
            ++updates;
            EXPECT_EQ(edges.count(e.cycle + 1), 1u)
                << "EpochUpdate at cycle " << e.cycle
                << " has no matching sample edge on SM " << sm;
        });
    }
    EXPECT_GT(updates, 0u);
}

// ---- registry ----

TEST(Registry, MatchesSimResultAccessors)
{
    Gpu gpu(config(2));
    SimResult r = gpu.run(profile(), nullptr);
    StatSet set = metrics::toStatSet(r);

    EXPECT_EQ(set.get("gpu.cycles"), static_cast<double>(r.cycles));
    EXPECT_EQ(set.get("gpu.totalSmCycles"),
              static_cast<double>(r.totalSmCycles));
    EXPECT_EQ(set.get("gpu.ipc"), r.ipc());
    EXPECT_EQ(set.get("gpu.avgActiveWarps"),
              r.aggregate.avgActiveWarps());
    EXPECT_EQ(set.get("gpu.instructions"),
              static_cast<double>(r.aggregate.issuedTotal));
    EXPECT_EQ(set.get("gpu.numSms"),
              static_cast<double>(r.smCycles.size()));

    EXPECT_EQ(set.get("gpu.energy.int.totalJ"), r.intEnergy.total());
    EXPECT_EQ(set.get("gpu.energy.fp.totalJ"), r.fpEnergy.total());
    EXPECT_EQ(set.get("gpu.energy.int.savingsRatio"),
              r.intEnergy.staticSavingsRatio());

    PgDomainStats si = r.typeStats(UnitClass::Int);
    EXPECT_EQ(set.get("gpu.pg.int.busyCycles"),
              static_cast<double>(si.busyCycles));
    EXPECT_EQ(set.get("gpu.pg.int.criticalWakeups"),
              static_cast<double>(si.criticalWakeups));
    EXPECT_EQ(set.get("gpu.pg.int0.busyCycles") +
                  set.get("gpu.pg.int1.busyCycles"),
              set.get("gpu.pg.int.busyCycles"));

    for (std::size_t s = 0; s < r.smCycles.size(); ++s)
        EXPECT_EQ(set.get("sm" + std::to_string(s) + ".cycles"),
                  static_cast<double>(r.smCycles[s]));

    EXPECT_EQ(set.get("config.numSms"),
              static_cast<double>(r.config.numSms));
    EXPECT_EQ(set.get("config.epochLength"),
              static_cast<double>(r.config.sm.pg.epochLength));
}

// ---- exporters ----

TEST(Exporters, FormatMetricValueIsLosslessAndCompact)
{
    EXPECT_EQ(formatMetricValue(3.0), "3");
    EXPECT_EQ(formatMetricValue(-17.0), "-17");
    EXPECT_EQ(formatMetricValue(0.0), "0");
    // Non-integral doubles round-trip exactly through strtod.
    for (double v : {0.1, 1.0 / 3.0, 2.5e-7, 123456.789}) {
        std::string s = formatMetricValue(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(Exporters, PromNameMapping)
{
    EXPECT_EQ(metrics::promName("gpu.pg.int0.busyCycles"),
              "wg_gpu_pg_int0_busyCycles");
    EXPECT_EQ(metrics::promName("gpu.ipc"), "wg_gpu_ipc");
}

/** Tiny hand-built collector + registry shared by the golden tests. */
struct GoldenFixture
{
    metrics::Collector coll;
    StatSet set;

    GoldenFixture()
    {
        coll.prepare(1, 4);
        metrics::EpochSampler* s = coll.sampler(0);
        metrics::EpochCounters cum;
        cum.issued = 10;
        cum.intBusyCycles = 3;
        cum.intIdleDetect = 5;
        cum.fpIdleDetect = 5;
        cum.activeAccum = 7;
        s->sample(4, cum);
        cum.issued = 25;
        cum.intIdleDetect = 6;
        cum.activeAccum = 11;
        s->sample(8, cum);

        set.set("a.count", 3.0);
        set.set("gpu.ipc", 1.5);
    }
};

TEST(Exporters, GoldenJsonl)
{
    GoldenFixture fix;
    std::ostringstream os;
    metrics::writeMetricsJsonl(os, &fix.coll, fix.set);
    EXPECT_EQ(
        os.str(),
        "{\"type\":\"meta\",\"format\":\"wgmetrics\",\"version\":1,"
        "\"epochLength\":4,\"numSms\":1}\n"
        "{\"type\":\"epoch\",\"sm\":0,\"epoch\":0,\"cycleEnd\":4,"
        "\"cycles\":4,\"issued\":10,\"intBusyCycles\":3,"
        "\"intGatedCycles\":0,\"intCompCycles\":0,"
        "\"intGatingEvents\":0,\"intWakeups\":0,"
        "\"intCriticalWakeups\":0,\"intIdleDetect\":5,"
        "\"fpBusyCycles\":0,\"fpGatedCycles\":0,\"fpCompCycles\":0,"
        "\"fpGatingEvents\":0,\"fpWakeups\":0,"
        "\"fpCriticalWakeups\":0,\"fpIdleDetect\":5,\"memMisses\":0,"
        "\"mshrRejects\":0,\"wakeupRequests\":0,\"activeAccum\":7}\n"
        "{\"type\":\"epoch\",\"sm\":0,\"epoch\":1,\"cycleEnd\":8,"
        "\"cycles\":4,\"issued\":15,\"intBusyCycles\":0,"
        "\"intGatedCycles\":0,\"intCompCycles\":0,"
        "\"intGatingEvents\":0,\"intWakeups\":0,"
        "\"intCriticalWakeups\":0,\"intIdleDetect\":6,"
        "\"fpBusyCycles\":0,\"fpGatedCycles\":0,\"fpCompCycles\":0,"
        "\"fpGatingEvents\":0,\"fpWakeups\":0,"
        "\"fpCriticalWakeups\":0,\"fpIdleDetect\":5,\"memMisses\":0,"
        "\"mshrRejects\":0,\"wakeupRequests\":0,\"activeAccum\":4}\n"
        "{\"type\":\"final\",\"stats\":{\"a.count\":3,"
        "\"gpu.ipc\":1.5}}\n");
}

TEST(Exporters, GoldenCsv)
{
    GoldenFixture fix;
    std::ostringstream os;
    metrics::writeMetricsCsv(os, &fix.coll, fix.set);
    EXPECT_EQ(os.str(),
              "# wgmetrics v1 epochLength=4 numSms=1\n"
              "sm,epoch,cycleEnd,cycles,issued,intBusyCycles,"
              "intGatedCycles,intCompCycles,intGatingEvents,"
              "intWakeups,intCriticalWakeups,intIdleDetect,"
              "fpBusyCycles,fpGatedCycles,fpCompCycles,"
              "fpGatingEvents,fpWakeups,fpCriticalWakeups,"
              "fpIdleDetect,memMisses,mshrRejects,wakeupRequests,"
              "activeAccum\n"
              "0,0,4,4,10,3,0,0,0,0,0,5,0,0,0,0,0,0,5,0,0,0,7\n"
              "0,1,8,4,15,0,0,0,0,0,0,6,0,0,0,0,0,0,5,0,0,0,4\n"
              "# final\n"
              "name,value\n"
              "a.count,3\n"
              "gpu.ipc,1.5\n");
}

TEST(Exporters, GoldenProm)
{
    GoldenFixture fix;
    std::ostringstream os;
    metrics::writeProm(os, fix.set);
    EXPECT_EQ(os.str(),
              "# HELP wg_a_count uncatalogued simulator metric\n"
              "# TYPE wg_a_count gauge\n"
              "wg_a_count 3\n"
              "# HELP wg_gpu_ipc whole-GPU aggregate counters (cycles,"
              " IPC, warps)\n"
              "# TYPE wg_gpu_ipc gauge\n"
              "wg_gpu_ipc 1.5\n"
              "# EOF\n");
}

TEST(Exporters, PromHistogramFamilyShape)
{
    LatencyHistogram h({0.01, 0.1, 1.0});
    h.record(0.005);
    h.record(0.05);
    h.record(0.05);
    h.record(50.0);
    std::ostringstream os;
    metrics::writePromHistogram(os, "serve.latency.endToEnd.seconds",
                                "end-to-end job latency", h);
    EXPECT_EQ(os.str(),
              "# HELP wg_serve_latency_endToEnd_seconds end-to-end job"
              " latency\n"
              "# TYPE wg_serve_latency_endToEnd_seconds histogram\n"
              "wg_serve_latency_endToEnd_seconds_bucket{le=\"0.01\"} 1\n"
              "wg_serve_latency_endToEnd_seconds_bucket{le=\"0.1\"} 3\n"
              "wg_serve_latency_endToEnd_seconds_bucket{le=\"1\"} 3\n"
              "wg_serve_latency_endToEnd_seconds_bucket{le=\"+Inf\"} 4\n"
              "wg_serve_latency_endToEnd_seconds_sum "
              "50.104999999999997\n"
              "wg_serve_latency_endToEnd_seconds_count 4\n");
}

TEST(Exporters, JsonlLineBuildersMatchWholeFileWriter)
{
    GoldenFixture fix;
    std::ostringstream whole;
    metrics::writeMetricsJsonl(whole, &fix.coll, fix.set);

    std::ostringstream lines;
    lines << metrics::jsonlMetaLine(true, fix.coll.epochLength(),
                                    fix.coll.numSms())
          << '\n';
    for (SmId sm = 0; sm < fix.coll.numSms(); ++sm)
        for (const auto& s : fix.coll.sampler(sm)->samples())
            lines << metrics::jsonlEpochLine(sm, s) << '\n';
    lines << metrics::jsonlFinalLine(fix.set) << '\n';
    EXPECT_EQ(whole.str(), lines.str());
}

/** export -> parse -> exact equality, for every format. */
void
expectRoundTrip(const metrics::Collector* coll, const StatSet& set,
                metrics::MetricsFormat format)
{
    std::ostringstream os;
    metrics::writeMetrics(os, coll, set, format);
    StatSet loaded;
    std::string error;
    ASSERT_TRUE(metrics::parseStatSet(os.str(), loaded, error))
        << error;
    EXPECT_EQ(loaded.entries().size(), set.entries().size());
    for (const auto& [name, value] : set.entries()) {
        ASSERT_TRUE(loaded.has(name))
            << name << " lost in " << metrics::metricsFormatName(format);
        EXPECT_EQ(loaded.get(name), value) << name;
    }
}

TEST(Exporters, RegistryRoundTripsThroughEveryFormat)
{
    Gpu gpu(config(2));
    metrics::Collector mets;
    SimResult r = gpu.run(profile(), nullptr, nullptr, &mets);
    StatSet set = metrics::toStatSet(r);
    ASSERT_GT(set.entries().size(), 50u);
    for (metrics::MetricsFormat f :
         {metrics::MetricsFormat::Csv, metrics::MetricsFormat::Jsonl,
          metrics::MetricsFormat::Prom})
        expectRoundTrip(&mets, set, f);
}

// ---- loader ----

TEST(Loader, FlattensNestedJsonDocuments)
{
    StatSet set;
    std::string error;
    ASSERT_TRUE(metrics::flattenJson(
        "{\"a\": {\"b\": 2, \"c\": [1, 2.5]}, \"d\": true,"
        " \"skip\": \"text\", \"e\": -3e2}",
        set, error))
        << error;
    EXPECT_EQ(set.get("a.b"), 2.0);
    EXPECT_EQ(set.get("a.c.0"), 1.0);
    EXPECT_EQ(set.get("a.c.1"), 2.5);
    EXPECT_EQ(set.get("d"), 1.0);
    EXPECT_EQ(set.get("e"), -300.0);
    EXPECT_FALSE(set.has("skip"));
}

TEST(Loader, RejectsMalformedInput)
{
    StatSet set;
    std::string error;
    EXPECT_FALSE(metrics::flattenJson("{\"a\": ", set, error));
    EXPECT_FALSE(error.empty());
}

TEST(Loader, RejectsDeepNestingWithoutOverflow)
{
    // A recursive reader with no depth bound overflowed the stack here.
    StatSet set;
    std::string error;
    EXPECT_FALSE(metrics::flattenJson(std::string(100000, '['), set, error));
    EXPECT_FALSE(error.empty());
}

TEST(Loader, RejectsNonJsonNumbers)
{
    for (const char* doc : {"{\"a\": nan}", "{\"a\": 0x10}",
                            "{\"a\": inf}", "{\"a\": +1}",
                            "{\"a\": .5}"}) {
        StatSet set;
        std::string error;
        EXPECT_FALSE(metrics::flattenJson(doc, set, error)) << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
}

TEST(Loader, RejectsNonNumericCsvValue)
{
    StatSet set;
    std::string error;
    EXPECT_FALSE(metrics::parseStatSet(
        "# wgmetrics v1\n# final\nname,value\ngpu.cycles,12\nfoo,bar\n",
        set, error));
    EXPECT_NE(error.find("foo,bar"), std::string::npos) << error;

    set = StatSet();
    ASSERT_TRUE(metrics::parseStatSet(
        "# wgmetrics v1\n# final\nname,value\ngpu.cycles,12\n", set,
        error))
        << error;
    EXPECT_EQ(set.get("gpu.cycles"), 12.0);
}

// ---- comparison engine ----

TEST(Compare, IdenticalSetsHaveNoRegressions)
{
    StatSet a;
    a.set("x", 1.0);
    a.set("y", 2.0);
    metrics::CompareReport rep = metrics::compareStatSets(a, a);
    EXPECT_EQ(rep.compared, 2u);
    EXPECT_EQ(rep.changed, 0u);
    EXPECT_EQ(rep.regressions, 0u);
}

TEST(Compare, ExactModeFlagsAnyDrift)
{
    StatSet base, test;
    base.set("x", 100.0);
    test.set("x", 100.001);
    metrics::CompareReport rep = metrics::compareStatSets(base, test);
    EXPECT_EQ(rep.regressions, 1u);
    EXPECT_TRUE(rep.deltas[0].beyondTolerance);
}

TEST(Compare, RelativeToleranceAbsorbsSmallDrift)
{
    StatSet base, test;
    base.set("x", 100.0);
    test.set("x", 100.001);
    metrics::CompareOptions opts;
    opts.relTol = 1e-4;
    metrics::CompareReport rep =
        metrics::compareStatSets(base, test, opts);
    EXPECT_EQ(rep.regressions, 0u);
    EXPECT_EQ(rep.changed, 1u);

    test.set("x", 120.0); // 20% — far past tolerance
    rep = metrics::compareStatSets(base, test, opts);
    EXPECT_EQ(rep.regressions, 1u);
}

TEST(Compare, MissingMetricsAreStructuralRegressions)
{
    StatSet base, test;
    base.set("gone", 1.0);
    test.set("fresh", 1.0);
    metrics::CompareOptions opts;
    opts.relTol = 1.0; // even a huge tolerance cannot excuse drift
    metrics::CompareReport rep =
        metrics::compareStatSets(base, test, opts);
    EXPECT_EQ(rep.regressions, 2u);
    ASSERT_EQ(rep.deltas.size(), 2u);
    // Base names are walked first, then test-only names.
    EXPECT_TRUE(rep.deltas[0].onlyInBase);  // "gone"
    EXPECT_TRUE(rep.deltas[1].onlyInTest);  // "fresh"
}

TEST(Compare, ProfileMetricsIgnoredByDefault)
{
    StatSet base, test;
    base.set("profile.phase.simLoop", 1.0);
    test.set("profile.phase.simLoop", 9.0);
    base.set("x", 1.0);
    test.set("x", 1.0);
    metrics::CompareReport rep = metrics::compareStatSets(base, test);
    EXPECT_EQ(rep.compared, 1u);
    EXPECT_EQ(rep.regressions, 0u);

    metrics::CompareOptions opts;
    opts.ignorePrefixes.clear();
    rep = metrics::compareStatSets(base, test, opts);
    EXPECT_EQ(rep.compared, 2u);
    EXPECT_EQ(rep.regressions, 1u);
}

TEST(Compare, PerMetricToleranceOverridesGlobal)
{
    StatSet base, test;
    base.set("noisy", 100.0);
    test.set("noisy", 105.0);
    base.set("strict", 100.0);
    test.set("strict", 105.0);
    metrics::CompareOptions opts;
    opts.perMetric["noisy"] = 0.10;
    metrics::CompareReport rep =
        metrics::compareStatSets(base, test, opts);
    EXPECT_EQ(rep.regressions, 1u);
    for (const metrics::MetricDelta& d : rep.deltas)
        EXPECT_EQ(d.beyondTolerance, d.name == "strict") << d.name;
}

TEST(Compare, AbsoluteFloorAbsorbsFpNoise)
{
    StatSet base, test;
    base.set("zeroish", 0.0);
    test.set("zeroish", 1e-15);
    metrics::CompareReport rep = metrics::compareStatSets(base, test);
    EXPECT_EQ(rep.regressions, 0u);

    test.set("zeroish", 1e-9); // a zero baseline that actually moved
    rep = metrics::compareStatSets(base, test);
    EXPECT_EQ(rep.regressions, 1u);
}

TEST(Compare, RenderListsChangedRowsOnly)
{
    StatSet base, test;
    base.set("same", 1.0);
    test.set("same", 1.0);
    base.set("moved", 1.0);
    test.set("moved", 2.0);
    metrics::CompareReport rep = metrics::compareStatSets(base, test);
    std::ostringstream brief_os;
    metrics::renderComparison(rep, "a", "b", false).print(brief_os);
    EXPECT_NE(brief_os.str().find("moved"), std::string::npos);
    EXPECT_EQ(brief_os.str().find("same"), std::string::npos);
    std::ostringstream full_os;
    metrics::renderComparison(rep, "a", "b", true).print(full_os);
    EXPECT_NE(full_os.str().find("same"), std::string::npos);
}

// ---- self-profiling ----

TEST(PhaseTimers, AccumulatesAndPublishes)
{
    metrics::PhaseTimers timers;
    timers.add("simLoop", 1.25);
    timers.add("simLoop", 0.25);
    timers.add("export", 0.5);
    EXPECT_EQ(timers.get("simLoop"), 1.5);
    EXPECT_EQ(timers.get("absent"), 0.0);

    StatSet set;
    timers.publish(set);
    EXPECT_EQ(set.get("profile.phase.simLoop"), 1.5);
    EXPECT_EQ(set.get("profile.phase.export"), 0.5);

    {
        metrics::PhaseTimers::Scope scope(&timers, "scoped");
    }
    EXPECT_GE(timers.get("scoped"), 0.0);
    // Null target: the scope must be a safe no-op.
    metrics::PhaseTimers::Scope off(nullptr, "ignored");
}

} // namespace
} // namespace wg
