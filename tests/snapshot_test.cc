/**
 * @file
 * Checkpoint/resume tests (DESIGN.md §17): splitting a run at any
 * epoch boundary (and off-boundary cycles) and resuming — through the
 * JSON codec — must reproduce the uninterrupted run exactly: the same
 * SimResult, the same metrics exports, the same trace bytes, with
 * fast-forward on or off on either side of the split. Also pins the
 * snapshot document bytes (golden), and locks the rejection paths:
 * corrupt/truncated documents fail parsing cleanly and semantically
 * impossible snapshots fail SimSession::restore with actionable
 * errors.
 *
 * Golden files live in tests/golden/; regenerate after an intentional
 * schema change with WG_REGEN_GOLDEN=1.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "serve/snapshot.hh"
#include "sim/session.hh"
#include "trace/sink.hh"

namespace wg {
namespace {

std::string
goldenPath(const std::string& name)
{
    return std::string(WG_GOLDEN_DIR) + "/" + name;
}

/** Read the golden, or (re)write it when WG_REGEN_GOLDEN is set. */
std::string
golden(const std::string& name, const std::string& actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("WG_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << actual;
        return actual;
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with WG_REGEN_GOLDEN=1)";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Small config with a short epoch so runs cross many boundaries. */
GpuConfig
config(bool fast_forward = true)
{
    ExperimentOptions opts;
    opts.numSms = 2;
    opts.seed = 11;
    GpuConfig cfg = makeConfig(Technique::WarpedGates, opts);
    cfg.sm.pg.epochLength = 256;
    cfg.sm.fastForward = fast_forward;
    return cfg;
}

BenchmarkProfile
profile(const std::string& bench)
{
    BenchmarkProfile p = findBenchmark(bench);
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

/**
 * The strongest equality the project has: the full metric registry
 * (every counter, histogram bin, and energy term under its dotted
 * name) plus the derived CSV export must match exactly — the same
 * check `wgreport --tol 0` performs.
 */
void
expectResultsIdentical(const SimResult& a, const SimResult& b,
                       const std::string& what)
{
    EXPECT_EQ(metrics::toStatSet(a).entries(),
              metrics::toStatSet(b).entries())
        << what;
    EXPECT_EQ(toCsvRow("x", a), toCsvRow("x", b)) << what;
}

/**
 * Run to completion with a split at @p cut: capture there, serialize
 * through the JSON codec, parse the bytes back, restore, and finish.
 * Exercises the full persistence path, not just in-memory state.
 */
SimResult
splitRun(const std::string& bench, Cycle cut, const GpuConfig& capture,
         const GpuConfig& resume)
{
    SimSession first =
        SimSession::open(profile(bench), capture, nullptr);
    first.runUntil(cut);
    const GpuSnapshot snap = first.snapshot();

    const std::string bytes =
        serve::wire::gpuSnapshotToJson(snap).dump();
    Json doc;
    std::string error;
    EXPECT_TRUE(Json::parse(bytes, doc, error,
                            serve::wire::snapshotJsonLimits()))
        << error;
    GpuSnapshot reloaded;
    EXPECT_TRUE(serve::wire::gpuSnapshotFromJson(doc, "$", reloaded,
                                                 error))
        << error;

    auto second = SimSession::restore(reloaded, profile(bench), resume,
                                      nullptr, nullptr, nullptr,
                                      &error);
    EXPECT_NE(second, nullptr) << error;
    return second->result();
}

TEST(SnapshotSplit, EveryEpochBoundaryMatchesUnsplit)
{
    for (const char* bench : {"hotspot", "bfs"}) {
        SimSession whole =
            SimSession::open(profile(bench), config(), nullptr);
        const SimResult unsplit = whole.result();
        const Cycle epoch = config().sm.pg.epochLength;
        ASSERT_GT(unsplit.cycles, 2 * epoch) << bench;

        for (Cycle cut = epoch; cut < unsplit.cycles; cut += epoch) {
            SimResult resumed =
                splitRun(bench, cut, config(), config());
            expectResultsIdentical(unsplit, resumed,
                                   std::string(bench) + " cut at " +
                                       std::to_string(cut));
        }
    }
}

TEST(SnapshotSplit, OffBoundaryCutIsStillExact)
{
    // The contract promises epoch boundaries, but the implementation
    // is exact at any cycle — pin that stronger property.
    SimSession whole =
        SimSession::open(profile("hotspot"), config(), nullptr);
    const SimResult unsplit = whole.result();
    for (Cycle cut : {Cycle(1), Cycle(333), Cycle(777)}) {
        ASSERT_LT(cut, unsplit.cycles);
        SimResult resumed = splitRun("hotspot", cut, config(), config());
        expectResultsIdentical(unsplit, resumed,
                               "cut at " + std::to_string(cut));
    }
}

TEST(SnapshotSplit, FastForwardPermutationsAllMatch)
{
    // FF is not part of the snapshot identity: a capture taken with it
    // on may be resumed with it off and vice versa, and every
    // combination equals the uninterrupted FF-on run.
    SimSession whole =
        SimSession::open(profile("hotspot"), config(true), nullptr);
    const SimResult unsplit = whole.result();
    const Cycle cut = 2 * config().sm.pg.epochLength;
    for (bool capture_ff : {true, false}) {
        for (bool resume_ff : {true, false}) {
            SimResult resumed = splitRun("hotspot", cut,
                                         config(capture_ff),
                                         config(resume_ff));
            expectResultsIdentical(
                unsplit, resumed,
                std::string("capture ff=") + (capture_ff ? "1" : "0") +
                    " resume ff=" + (resume_ff ? "1" : "0"));
        }
    }
}

TEST(SnapshotSplit, TraceAndMetricsBytesSurviveTheSplit)
{
    // The observer outputs inherit the guarantee: the serialized trace
    // JSONL and every metrics format of a split run must equal the
    // uninterrupted run's byte for byte.
    trace::Collector whole_trace;
    metrics::Collector whole_metrics;
    SimSession whole = SimSession::open(profile("hotspot"), config(),
                                        nullptr, &whole_trace,
                                        &whole_metrics);
    const SimResult unsplit = whole.result();
    ASSERT_GT(whole_trace.totalEvents(), 0u);
    ASSERT_GT(whole_metrics.totalSamples(), 0u);

    trace::Collector first_trace;
    metrics::Collector first_metrics;
    SimSession first = SimSession::open(profile("hotspot"), config(),
                                        nullptr, &first_trace,
                                        &first_metrics);
    const Cycle cut = 3 * config().sm.pg.epochLength;
    first.runUntil(cut);
    const GpuSnapshot snap = first.snapshot();

    trace::Collector second_trace;
    metrics::Collector second_metrics;
    std::string error;
    auto second = SimSession::restore(snap, profile("hotspot"),
                                      config(), nullptr, &second_trace,
                                      &second_metrics, &error);
    ASSERT_NE(second, nullptr) << error;
    const SimResult resumed = second->result();
    expectResultsIdentical(unsplit, resumed, "observed split");

    std::ostringstream whole_os, split_os;
    trace::writeJsonl(whole_os, whole_trace);
    trace::writeJsonl(split_os, second_trace);
    EXPECT_EQ(whole_os.str(), split_os.str());

    StatSet whole_set = metrics::toStatSet(unsplit);
    StatSet split_set = metrics::toStatSet(resumed);
    for (metrics::MetricsFormat format :
         {metrics::MetricsFormat::Jsonl, metrics::MetricsFormat::Csv,
          metrics::MetricsFormat::Prom}) {
        std::ostringstream a, b;
        metrics::writeMetrics(a, &whole_metrics, whole_set, format);
        metrics::writeMetrics(b, &second_metrics, split_set, format);
        EXPECT_EQ(a.str(), b.str())
            << metrics::metricsFormatName(format);
    }
}

/** A deterministic mid-run snapshot document for the codec tests. */
Json
sampleDoc(serve::wire::SnapshotIdentity& id_out)
{
    serve::wire::SnapshotIdentity id;
    id.bench = "hotspot";
    id.technique = Technique::WarpedGates;
    id.options.numSms = 2;
    id.options.seed = 7;
    GpuConfig cfg;
    std::string error;
    EXPECT_TRUE(serve::wire::snapshotConfig(id, cfg, error)) << error;
    SimSession session =
        SimSession::open(findBenchmark(id.bench), cfg, nullptr);
    session.runUntil(1000);
    id_out = id;
    return serve::wire::snapshotDoc(id, session.snapshot());
}

TEST(SnapshotDoc, RoundTripsByteIdentically)
{
    serve::wire::SnapshotIdentity id;
    Json doc = sampleDoc(id);
    const std::string bytes = doc.dump();

    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(bytes, reparsed, error,
                            serve::wire::snapshotJsonLimits()))
        << error;
    serve::wire::SnapshotIdentity back;
    GpuSnapshot snap;
    ASSERT_TRUE(serve::wire::parseSnapshotDoc(reparsed, back, snap,
                                              error))
        << error;
    EXPECT_EQ(back.bench, id.bench);
    EXPECT_EQ(back.technique, id.technique);
    EXPECT_EQ(back.options.seed, id.options.seed);
    EXPECT_EQ(snap.cycle, 1000u);
    ASSERT_EQ(snap.sms.size(), 2u);

    // Re-serializing the parsed state reproduces the bytes exactly.
    EXPECT_EQ(serve::wire::snapshotDoc(back, snap).dump(), bytes);
}

TEST(SnapshotDoc, IsGoldenPinned)
{
    serve::wire::SnapshotIdentity id;
    const std::string bytes = sampleDoc(id).dump();
    EXPECT_EQ(bytes, golden("snapshot_gpu_v2.json", bytes));
}

TEST(SnapshotDoc, CorruptionIsRejectedCleanly)
{
    serve::wire::SnapshotIdentity id;
    const std::string bytes = sampleDoc(id).dump();

    // Truncations at many byte offsets: parse or doc-check must fail
    // cleanly (never abort) with a non-empty error.
    for (std::size_t cut = 1; cut + 1 < bytes.size();
         cut += bytes.size() / 97 + 1) {
        Json out;
        std::string error;
        if (Json::parse(bytes.substr(0, cut), out, error,
                        serve::wire::snapshotJsonLimits())) {
            serve::wire::SnapshotIdentity pid;
            GpuSnapshot snap;
            EXPECT_FALSE(serve::wire::parseSnapshotDoc(out, pid, snap,
                                                       error));
        }
        EXPECT_FALSE(error.empty());
    }

    // Field-level corruption keeps the document well-formed JSON but
    // must still be rejected with an actionable error.
    auto corrupt = [&](const std::string& from, const std::string& to,
                       const char* needle) {
        std::string mutated = bytes;
        std::size_t at = mutated.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        mutated.replace(at, from.size(), to);
        Json out;
        std::string error;
        ASSERT_TRUE(Json::parse(mutated, out, error,
                                serve::wire::snapshotJsonLimits()))
            << error;
        serve::wire::SnapshotIdentity pid;
        GpuSnapshot snap;
        EXPECT_FALSE(serve::wire::parseSnapshotDoc(out, pid, snap,
                                                   error))
            << "accepted corruption of " << from;
        EXPECT_NE(error.find(needle), std::string::npos)
            << "error was: " << error;
    };
    corrupt("\"wire\":2", "\"wire\":9", "unsupported schema version 9");
    corrupt("\"type\":\"snapshot\"", "\"type\":\"snapshit\"",
            "expected 'snapshot'");
    corrupt("\"technique\":\"WarpedGates\"",
            "\"technique\":\"WarpedGoats\"", "unknown technique");
    corrupt("\"cycle\":1000", "\"cycle\":true,\"was\":1000",
            "expected a non-negative");
}

TEST(SnapshotRestore, RejectsImpossibleSnapshots)
{
    SimSession first =
        SimSession::open(profile("hotspot"), config(), nullptr);
    first.runUntil(512);
    const GpuSnapshot snap = first.snapshot();
    std::string error;

    // SM count mismatch.
    GpuConfig three_sms = config();
    three_sms.numSms = 3;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), three_sms,
                                  nullptr, nullptr, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("SM count"), std::string::npos) << error;

    // Warp count mismatch (different workload shape).
    BenchmarkProfile fatter = profile("hotspot");
    fatter.residentWarps = 32;
    EXPECT_EQ(SimSession::restore(snap, fatter, config(), nullptr,
                                  nullptr, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("warp count"), std::string::npos) << error;

    // Observer mismatch: unobserved capture, observed resume.
    trace::Collector tracer;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, &tracer, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("no trace section"), std::string::npos)
        << error;
    metrics::Collector mets;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, nullptr, &mets, &error),
              nullptr);
    EXPECT_NE(error.find("no metrics section"), std::string::npos)
        << error;

    // Empty snapshot.
    EXPECT_EQ(SimSession::restore(GpuSnapshot{}, profile("hotspot"),
                                  config(), nullptr, nullptr, nullptr,
                                  &error),
              nullptr);
    EXPECT_NE(error.find("no SM sections"), std::string::npos)
        << error;
}

TEST(SnapshotRestore, RejectsObservedCaptureWithoutObservers)
{
    trace::Collector tracer;
    metrics::Collector mets;
    SimSession first = SimSession::open(profile("hotspot"), config(),
                                        nullptr, &tracer, &mets);
    first.runUntil(512);
    const GpuSnapshot snap = first.snapshot();
    std::string error;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, nullptr, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("trace section"), std::string::npos) << error;
}

TEST(SnapshotRestore, RejectsTraceOverflowingTheRing)
{
    trace::Collector big;
    SimSession first = SimSession::open(profile("hotspot"), config(),
                                        nullptr, &big);
    first.runUntil(512);
    const GpuSnapshot snap = first.snapshot();
    ASSERT_GT(snap.sms[0].traceEvents.size(), 2u);

    trace::RecorderConfig tiny_ring;
    tiny_ring.capacity = 2;
    trace::Collector tiny(tiny_ring);
    std::string error;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, &tiny, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("exceeds the ring capacity"),
              std::string::npos)
        << error;
}

TEST(SnapshotRestore, RefusesTraceSectionOfAnotherSchema)
{
    trace::Collector tracer;
    SimSession first = SimSession::open(profile("hotspot"), config(),
                                        nullptr, &tracer);
    first.runUntil(512);
    const GpuSnapshot snap = first.snapshot();
    ASSERT_EQ(snap.sms[0].traceSchema, trace::kSchemaVersion);

    // A v1 build's traced section had one reject per attempt, a v2
    // build's one per tally.
    for (std::uint32_t schema : {1u, 2u}) {
        GpuSnapshot old = snap;
        old.sms[0].traceSchema = schema;
        trace::Collector resumed;
        std::string error;
        EXPECT_EQ(SimSession::restore(old, profile("hotspot"), config(),
                                      nullptr, &resumed, nullptr, &error),
                  nullptr);
        EXPECT_NE(error.find("trace section has schema " +
                             std::to_string(schema)),
                  std::string::npos)
            << error;
    }
    std::string error;

    // A document without the member, as a v1 build wrote it, does not
    // decode.
    std::string bytes = serve::wire::gpuSnapshotToJson(snap).dump();
    const std::string member =
        "\"traceSchema\":" + std::to_string(trace::kSchemaVersion) + ",";
    ASSERT_NE(bytes.find(member), std::string::npos);
    bytes.erase(bytes.find(member), member.size());
    Json doc;
    ASSERT_TRUE(Json::parse(bytes, doc, error,
                            serve::wire::snapshotJsonLimits()))
        << error;
    GpuSnapshot reloaded;
    error.clear();
    EXPECT_FALSE(
        serve::wire::gpuSnapshotFromJson(doc, "$", reloaded, error));
    EXPECT_NE(error.find("traceSchema"), std::string::npos) << error;
}

/**
 * Capture hotspot at the first 16-cycle boundary where some INT/FP/SFU
 * unit of SM 0 has at least two occupancy ends and two completions in
 * flight. @return that unit's section of @p snap (null if none by
 * cycle 4096).
 */
ExecUnitState*
captureTwoInFlight(GpuSnapshot& snap)
{
    for (Cycle cut = 64; cut <= 4096; cut += 16) {
        SimSession s =
            SimSession::open(profile("hotspot"), config(), nullptr);
        s.runUntil(cut);
        snap = s.snapshot();
        SmSnapshot& sm = snap.sms[0];
        for (ExecUnitState* u : {&sm.intUnits[0], &sm.intUnits[1],
                                 &sm.fpUnits[0], &sm.fpUnits[1], &sm.sfu})
            if (u->occupancy.size() >= 2 && u->completions.size() >= 2)
                return u;
    }
    return nullptr;
}

/** Restore @p snap; expect a clean refusal mentioning @p what. */
void
expectExecUnitRefusal(const GpuSnapshot& snap, const std::string& what)
{
    std::string error;
    EXPECT_EQ(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, nullptr, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("snapshot exec unit"), std::string::npos)
        << error;
    EXPECT_NE(error.find(what), std::string::npos) << error;
}

TEST(SnapshotRestore, RejectsExecUnitListsOutOfOrder)
{
    GpuSnapshot snap;
    ExecUnitState* unit = captureTwoInFlight(snap);
    ASSERT_NE(unit, nullptr);
    const ExecUnitState kept = *unit;
    std::string error;
    ASSERT_NE(SimSession::restore(snap, profile("hotspot"), config(),
                                  nullptr, nullptr, nullptr, &error),
              nullptr)
        << error;

    std::swap(unit->occupancy[0], unit->occupancy[1]);
    expectExecUnitRefusal(snap, "occupancy ends not ascending");
    *unit = kept;
    unit->occupancy[1] = unit->occupancy[0];
    expectExecUnitRefusal(snap, "occupancy ends not ascending");
    *unit = kept;
    std::swap(unit->completions[0], unit->completions[1]);
    expectExecUnitRefusal(snap, "completions not ascending");
    *unit = kept;
    unit->completions[1].done = unit->completions[0].done;
    expectExecUnitRefusal(snap, "completions not ascending");
}

TEST(SnapshotRestore, RejectsExecUnitListsBeyondTheInFlightBound)
{
    GpuSnapshot snap;
    ExecUnitState* unit = captureTwoInFlight(snap);
    ASSERT_NE(unit, nullptr);
    const ExecUnitState kept = *unit;
    // The default ALU (4, II 1) and SFU (20, II 8) hold at most 4 and
    // 3 events of each kind; ascending padding to 64 exceeds both.
    while (unit->occupancy.size() < 64)
        unit->occupancy.push_back(unit->occupancy.back() + 1);
    expectExecUnitRefusal(snap, "more occupancy slots than the unit "
                                "holds in flight");
    *unit = kept;
    while (unit->completions.size() < 64) {
        Completion c = unit->completions.back();
        ++c.done;
        unit->completions.push_back(c);
    }
    expectExecUnitRefusal(snap, "more completions than the unit holds "
                                "in flight");
}

TEST(SnapshotRestore, RealSnapshotsStayWithinTheInFlightBounds)
{
    // Capture every 8 cycles, fast-forward on and off (a skipped span
    // leaves LD/ST occupancy ends in the past), over an ALU-, an SFU-
    // and a memory-heavy profile: every list fits its unit's bound and
    // every snapshot restores.
    const SmConfig& cfg = config().sm;
    const ExecUnit alu(UnitClass::Int, 0, cfg.alu);
    const ExecUnit sfu(UnitClass::Sfu, 0, cfg.sfu);
    const ExecUnit ldst(UnitClass::Ldst, 0, cfg.ldst);
    auto within = [](const ExecUnitState& s, const ExecUnit& u) {
        EXPECT_LE(s.occupancy.size(), u.maxOccupancy()) << u.name();
        if (u.maxCompletions() > 0) {
            EXPECT_LE(s.completions.size(), u.maxCompletions())
                << u.name();
        }
    };
    std::size_t most_int = 0, most_sfu = 0;
    for (const char* bench : {"hotspot", "mri", "bfs"}) {
        for (bool ff : {true, false}) {
            SimSession s =
                SimSession::open(profile(bench), config(ff), nullptr);
            for (Cycle cut = 8; cut <= 2048 && !s.done(); cut += 8) {
                s.runUntil(cut);
                const GpuSnapshot snap = s.snapshot();
                for (const SmSnapshot& sm : snap.sms) {
                    for (unsigned c = 0; c < 2; ++c) {
                        within(sm.intUnits[c], alu);
                        within(sm.fpUnits[c], alu);
                        most_int = std::max(
                            most_int, sm.intUnits[c].completions.size());
                    }
                    within(sm.sfu, sfu);
                    within(sm.ldst, ldst);
                    most_sfu = std::max(most_sfu, sm.sfu.completions.size());
                }
                std::string error;
                EXPECT_NE(SimSession::restore(snap, profile(bench),
                                              config(ff), nullptr, nullptr,
                                              nullptr, &error),
                          nullptr)
                    << bench << " cycle " << cut << ": " << error;
            }
        }
    }
    EXPECT_GE(most_int, 2u);
    EXPECT_GE(most_sfu, 1u);
}

TEST(SnapshotRestore, SnapshotOfRestoredSessionIsIdentical)
{
    // snapshot(restore(snapshot(s))) == snapshot(s): restoring loses
    // nothing, so checkpoint chains are stable.
    SimSession first =
        SimSession::open(profile("bfs"), config(), nullptr);
    first.runUntil(768);
    const GpuSnapshot snap = first.snapshot();
    std::string error;
    auto second = SimSession::restore(snap, profile("bfs"), config(),
                                      nullptr, nullptr, nullptr,
                                      &error);
    ASSERT_NE(second, nullptr) << error;
    EXPECT_EQ(serve::wire::gpuSnapshotToJson(second->snapshot()).dump(),
              serve::wire::gpuSnapshotToJson(snap).dump());
}

TEST(SnapshotDeath, OpenWithZeroSmsAborts)
{
    GpuConfig cfg = config();
    cfg.numSms = 0;
    EXPECT_DEATH(
        SimSession::open(profile("hotspot"), cfg, nullptr),
        "numSms must be positive");
}

} // namespace
} // namespace wg
