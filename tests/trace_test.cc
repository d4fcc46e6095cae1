/**
 * @file
 * Unit tests for the event-trace subsystem core: the per-SM ring
 * recorder, the whole-GPU collector, the three sinks, and the
 * zero-impact contract of the disabled (null-recorder) path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/codec.hh"
#include "common/threadpool.hh"
#include "core/warped_gates.hh"
#include "sim/gpu.hh"
#include "sim/session.hh"
#include "trace/recorder.hh"
#include "trace/sink.hh"

namespace wg {
namespace {

using trace::Event;
using trace::EventKind;

TEST(Recorder, RecordsAndIteratesOldestFirst)
{
    trace::Recorder rec(3, 8);
    EXPECT_EQ(rec.sm(), 3u);
    EXPECT_EQ(rec.capacity(), 8u);
    for (Cycle c = 1; c <= 5; ++c)
        rec.record(c, EventKind::UnitIdle, 0, 0);
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.overwritten(), 0u);

    std::vector<Event> events = rec.events();
    ASSERT_EQ(events.size(), 5u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, i + 1) << "oldest-first order";
}

TEST(Recorder, RingWrapKeepsNewestAndCountsLost)
{
    trace::Recorder rec(0, 4);
    for (Cycle c = 0; c < 10; ++c)
        rec.record(c, EventKind::Issue, 0, 0, 0,
                   static_cast<std::uint32_t>(c));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.overwritten(), 6u);

    std::vector<Event> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 6 + i) << "newest window retained";
        EXPECT_EQ(events[i].value, 6 + i);
    }

    // forEach must visit the identical sequence without copying.
    std::size_t i = 0;
    rec.forEach([&](const Event& e) {
        EXPECT_EQ(e.cycle, events[i].cycle);
        ++i;
    });
    EXPECT_EQ(i, 4u);
}

TEST(Recorder, EventPayloadRoundTrips)
{
    trace::Recorder rec(0, 4);
    rec.record(123, EventKind::Gate, 1, 0,
               static_cast<std::uint8_t>(trace::GateReason::CoordDrain),
               77);
    ASSERT_EQ(rec.size(), 1u);
    Event e = rec.events()[0];
    EXPECT_EQ(e.cycle, 123u);
    EXPECT_EQ(e.kind, EventKind::Gate);
    EXPECT_EQ(e.unit, 1);
    EXPECT_EQ(e.cluster, 0);
    EXPECT_EQ(e.arg,
              static_cast<std::uint8_t>(trace::GateReason::CoordDrain));
    EXPECT_EQ(e.value, 77u);
}

// ---- MshrReject runs ----

constexpr std::uint8_t kLdst = static_cast<std::uint8_t>(UnitClass::Ldst);

/** "<cycle>:<kind>[:<attempts>x<cycles>]" per retained event. */
std::vector<std::string>
describe(const trace::Recorder& rec)
{
    std::vector<std::string> out;
    rec.forEach([&](const Event& e) {
        std::string d =
            std::to_string(e.cycle) + ":" + trace::eventKindName(e.kind);
        if (e.kind == EventKind::MshrReject)
            d += ":" + std::to_string(e.arg) + "x" +
                 std::to_string(e.value);
        out.push_back(d);
    });
    return out;
}

TEST(RejectRun, ExtendsAcrossInterleavedEvents)
{
    trace::Recorder rec(0, 16);
    rec.recordReject(10, kLdst, 3);
    rec.record(10, EventKind::PrioritySwitch, 0);
    rec.recordReject(11, kLdst, 3);
    rec.record(12, EventKind::UnitIdle, kLdst, 0);
    rec.recordReject(12, kLdst, 3);
    const std::vector<std::string> want = {"10:mshr-reject:3x3",
                                           "10:priority-switch",
                                           "12:unit-idle"};
    EXPECT_EQ(describe(rec), want);
    const Event run = rec.events()[0];
    EXPECT_EQ(run.unit, kLdst);
    EXPECT_EQ(run.cluster, trace::kNoCluster);
}

TEST(RejectRun, NewRunOnAttemptsChangeGapOrSecondTally)
{
    trace::Recorder rec(0, 16);
    rec.recordReject(10, kLdst, 3);
    rec.recordReject(11, kLdst, 4); // attempts change
    rec.recordReject(12, kLdst, 4);
    rec.recordReject(14, kLdst, 4); // cycle gap
    rec.recordReject(14, kLdst, 4); // second tally in the same cycle
    rec.recordReject(15, kLdst, 4); // extends the newest run only
    const std::vector<std::string> want = {
        "10:mshr-reject:3x1", "11:mshr-reject:4x2", "14:mshr-reject:4x1",
        "14:mshr-reject:4x2"};
    EXPECT_EQ(describe(rec), want);
}

TEST(RejectRun, WrapThatOverwritesTheOpenRunClosesIt)
{
    trace::Recorder rec(0, 3);
    rec.recordReject(10, kLdst, 1);
    rec.record(10, EventKind::UnitIdle, kLdst, 0);
    rec.record(10, EventKind::PrioritySwitch, 0);
    // Overwrites the run's slot with an event that, read as a run,
    // would end at cycle 11 with 1 attempt.
    rec.record(10, EventKind::WarpMigrate, trace::kNoUnit,
               trace::kNoCluster, 1, 1);
    EXPECT_EQ(rec.overwritten(), 1u);
    rec.recordReject(11, kLdst, 1);
    const std::vector<std::string> want = {
        "10:priority-switch", "10:warp-migrate", "11:mshr-reject:1x1"};
    EXPECT_EQ(describe(rec), want);
    EXPECT_EQ(rec.events()[1].value, 1u) << "the migrated warp is kept";

    // A run that survives the wrap still grows in its new position.
    rec.recordReject(12, kLdst, 1);
    rec.record(12, EventKind::UnitIdle, kLdst, 0);
    rec.recordReject(13, kLdst, 1);
    const std::vector<std::string> grown = {
        "10:warp-migrate", "11:mshr-reject:1x3", "12:unit-idle"};
    EXPECT_EQ(describe(rec), grown);
}

TEST(RejectRun, RestoreReopensTheNewestRun)
{
    trace::Recorder rec(0, 16);
    rec.recordReject(10, kLdst, 5);
    rec.recordReject(11, kLdst, 5);
    rec.record(11, EventKind::UnitIdle, kLdst, 0);

    trace::Recorder resumed(0, 16);
    resumed.restore(rec.events(), rec.overwritten());
    for (trace::Recorder* r : {&rec, &resumed})
        r->recordReject(12, kLdst, 5);
    const std::vector<std::string> want = {"10:mshr-reject:5x3",
                                           "11:unit-idle"};
    EXPECT_EQ(describe(rec), want);
    EXPECT_EQ(describe(resumed), want);

    // Restoring a second time resets the open run with the ring.
    resumed.restore({}, 0);
    resumed.recordReject(13, kLdst, 5);
    EXPECT_EQ(describe(resumed),
              std::vector<std::string>{"13:mshr-reject:5x1"});
}

TEST(Collector, PrepareCreatesOneRecorderPerSm)
{
    trace::Collector collector;
    EXPECT_EQ(collector.numSms(), 0u);
    EXPECT_EQ(collector.recorder(0), nullptr);

    collector.prepare(3);
    EXPECT_EQ(collector.numSms(), 3u);
    for (SmId s = 0; s < 3; ++s) {
        ASSERT_NE(collector.recorder(s), nullptr);
        EXPECT_EQ(collector.recorder(s)->sm(), s);
    }
    EXPECT_EQ(collector.recorder(3), nullptr) << "out of range";

    collector.recorder(1)->record(9, EventKind::Issue);
    EXPECT_EQ(collector.totalEvents(), 1u);
    EXPECT_EQ(collector.totalOverwritten(), 0u);
}

TEST(Collector, SmFilterLeavesOtherSmsNull)
{
    trace::RecorderConfig cfg;
    cfg.smFilter = 2;
    trace::Collector collector(cfg);
    collector.prepare(4);
    EXPECT_EQ(collector.numSms(), 4u);
    EXPECT_EQ(collector.recorder(0), nullptr);
    EXPECT_EQ(collector.recorder(1), nullptr);
    ASSERT_NE(collector.recorder(2), nullptr);
    EXPECT_EQ(collector.recorder(3), nullptr);
}

// ---- recording a real SM run ----

BenchmarkProfile
smallProfile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

TEST(TraceSm, FullRunRecordsOrderedEvents)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    ProgramGenerator gen(1);
    auto programs = gen.generateSm(smallProfile(), 0);

    trace::Recorder rec(0, std::size_t{1} << 20);
    Sm sm(config.sm, programs, 42, &rec);
    const SmStats& stats = sm.run();

    EXPECT_GT(rec.size(), 0u);
    EXPECT_EQ(rec.overwritten(), 0u) << "capacity sized for the run";

    std::uint64_t issues = 0, idles = 0, migrates = 0;
    Cycle prev = 0;
    rec.forEach([&](const Event& e) {
        EXPECT_GE(e.cycle, prev) << "events must be cycle-ordered";
        prev = e.cycle;
        switch (e.kind) {
          case EventKind::Issue: ++issues; break;
          case EventKind::UnitIdle: ++idles; break;
          case EventKind::WarpMigrate: ++migrates; break;
          default: break;
        }
    });
    EXPECT_EQ(issues, stats.issuedTotal)
        << "every issued instruction records exactly one Issue event";
    EXPECT_GT(idles, 0u);
    EXPECT_GT(migrates, 0u);
}

TEST(TraceSm, NullRecorderLeavesResultsUntouched)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    ProgramGenerator gen(1);
    auto programs = gen.generateSm(smallProfile(), 0);

    Sm plain(config.sm, programs, 42, nullptr);
    const SmStats& a = plain.run();

    trace::Recorder rec(0, std::size_t{1} << 20);
    Sm traced(config.sm, programs, 42, &rec);
    const SmStats& b = traced.run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.issuedTotal, b.issuedTotal);
    for (std::size_t c = 0; c < kNumUnitClasses; ++c)
        EXPECT_EQ(a.issuedByClass[c], b.issuedByClass[c]);
}

// ---- sinks ----

/** A tiny collector with deterministic hand-placed events. */
trace::Collector
makeSampleCollector(std::size_t capacity = 64)
{
    trace::RecorderConfig cfg;
    cfg.capacity = capacity;
    trace::Collector collector(cfg);
    collector.prepare(2);
    collector.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 2);

    trace::Recorder* r0 = collector.recorder(0);
    r0->record(10, EventKind::UnitIdle, 0, 0);
    r0->record(15, EventKind::Gate, 0, 0,
               static_cast<std::uint8_t>(trace::GateReason::IdleDetect), 0);
    r0->record(29, EventKind::BetExpire, 0, 0, 0, 14);
    collector.recorder(1)->record(7, EventKind::Issue, 1, 0, 0, 3);
    return collector;
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(Sink, JsonlEmitsMetaThenOneObjectPerEvent)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeJsonl(os, collector);

    std::vector<std::string> lines = splitLines(os.str());
    ASSERT_GE(lines.size(), 5u);
    EXPECT_NE(lines[0].find("\"policy\""), std::string::npos)
        << "meta must be the first line";
    EXPECT_NE(lines[0].find("\"breakEven\""), std::string::npos);
    std::size_t events = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].front(), '{');
        EXPECT_EQ(lines[i].back(), '}');
        if (lines[i].find("\"kind\"") != std::string::npos)
            ++events;
    }
    EXPECT_EQ(events, collector.totalEvents());
}

TEST(Sink, JsonlFlagsTruncatedStreams)
{
    trace::Collector collector = makeSampleCollector(2);
    // Recorder 0 got 3 events into capacity 2: one was lost.
    EXPECT_EQ(collector.totalOverwritten(), 1u);
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    EXPECT_NE(os.str().find("\"truncated\":1"), std::string::npos)
        << "a wrapped ring must be flagged, not silently shortened";
}

TEST(Sink, ChromeTraceIsOneJsonDocument)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeChromeTrace(os, collector);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\""), std::string::npos);
}

TEST(Sink, EpochCsvStartsWithHeader)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeEpochCsv(os, collector);
    std::vector<std::string> lines = splitLines(os.str());
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("sm"), std::string::npos);
    EXPECT_NE(lines[0].find(','), std::string::npos);
}

TEST(Sink, FormatNamesRoundTrip)
{
    for (trace::SinkFormat f : {trace::SinkFormat::Chrome,
                                trace::SinkFormat::Jsonl,
                                trace::SinkFormat::Csv}) {
        trace::SinkFormat parsed;
        ASSERT_TRUE(trace::parseSinkFormat(trace::sinkFormatName(f),
                                           parsed));
        EXPECT_EQ(parsed, f);
    }
    trace::SinkFormat parsed;
    EXPECT_FALSE(trace::parseSinkFormat("protobuf", parsed));
}

TEST(Sink, EventToJsonCarriesIdentity)
{
    Event e;
    e.cycle = 1234;
    e.kind = EventKind::Gate;
    e.unit = 0;
    e.cluster = 1;
    e.arg = static_cast<std::uint8_t>(trace::GateReason::IdleDetect);
    e.value = 2;
    std::string json = trace::eventToJson(5, e);
    EXPECT_NE(json.find("\"sm\":5"), std::string::npos);
    EXPECT_NE(json.find("1234"), std::string::npos);
    EXPECT_NE(json.find(trace::eventKindName(EventKind::Gate)),
              std::string::npos);
}

// ---- JSONL reader ----

/** Field-by-field equality through the field lists. */
template <class S>
std::string
encoded(const S& s)
{
    return codec::encode(s).dump();
}

TEST(JsonlReader, RoundTripsAWrappedHotspotTrace)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    config.numSms = 2;
    ASSERT_TRUE(config.sm.fastForward);
    trace::RecorderConfig cfg;
    cfg.capacity = 256;
    trace::Collector collector(cfg);
    Gpu(config).run(smallProfile(), nullptr, &collector);
    ASSERT_GT(collector.recorder(0)->overwritten(), 0u)
        << "the ring must wrap";

    std::ostringstream os;
    trace::writeJsonl(os, collector);
    const std::vector<std::string> lines = splitLines(os.str());
    ASSERT_FALSE(lines.empty());

    std::string error;
    trace::Meta meta;
    ASSERT_TRUE(trace::parseJsonlMeta(lines[0], meta, error)) << error;
    EXPECT_EQ(encoded(meta), encoded(collector.meta));
    EXPECT_EQ(meta.numSms, 2u);

    std::vector<std::string> want;
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const trace::Recorder* r = collector.recorder(s);
        if (r->overwritten() > 0)
            want.push_back("truncated " + std::to_string(s) + " " +
                           std::to_string(r->overwritten()));
        r->forEach([&](const Event& e) {
            want.push_back(std::to_string(s) + " " + encoded(e));
        });
    }
    std::vector<std::string> got;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        trace::JsonlRecord rec;
        ASSERT_TRUE(
            trace::parseJsonlRecord(lines[i], meta.version, rec, error))
            << lines[i] << ": " << error;
        got.push_back(rec.marker ? "truncated " + std::to_string(rec.sm) +
                                       " " + std::to_string(rec.truncated)
                                 : std::to_string(rec.sm) + " " +
                                       encoded(rec.event));
    }
    EXPECT_EQ(got, want);
}

TEST(JsonlReader, EveryKindRoundTripsThroughThePayloadTable)
{
    for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
        Event e;
        e.cycle = 1000 + k;
        e.kind = static_cast<EventKind>(k);
        e.unit = static_cast<std::uint8_t>(k % kNumUnitClasses);
        e.cluster = static_cast<std::uint8_t>(k % 2);
        e.arg = 1; // a valid gate reason, wake reason and warp location
        e.value = 42;
        const std::string line = trace::eventToJson(3, e);
        trace::JsonlRecord rec;
        std::string error;
        ASSERT_TRUE(trace::parseJsonlRecord(line, trace::kSchemaVersion,
                                            rec, error))
            << line << ": " << error;
        EXPECT_FALSE(rec.marker);
        EXPECT_EQ(rec.sm, 3u);
        EXPECT_EQ(rec.event.cycle, e.cycle);
        EXPECT_EQ(rec.event.kind, e.kind);
        EXPECT_EQ(rec.event.unit, e.unit);
        EXPECT_EQ(rec.event.cluster, e.cluster);
        // arg/value survive exactly where the kind writes them.
        EXPECT_EQ(trace::eventToJson(3, rec.event), line);
    }
}

TEST(JsonlReader, RejectsOutOfRangeAndUnexpectedMembers)
{
    std::string error;
    trace::JsonlRecord rec;
    ASSERT_TRUE(trace::parseJsonlRecord(
        R"({"sm":1,"cycle":5,"kind":"issue","unit":"INT","cluster":1,"warp":7})",
        trace::kSchemaVersion, rec, error))
        << error;
    EXPECT_EQ(rec.event.cluster, 1u);
    EXPECT_EQ(rec.event.value, 7u);

    const char* bad[] = {
        // Values a stoull-based reader wrapped or truncated silently.
        R"({"sm":-1,"cycle":5,"kind":"unit-idle"})",
        R"({"sm":4294967296,"cycle":5,"kind":"unit-idle"})",
        R"({"sm":0,"cycle":-1,"kind":"unit-idle"})",
        R"({"sm":0,"cycle":5,"kind":"issue","unit":"INT","cluster":300,"warp":1})",
        R"({"sm":0,"cycle":5,"kind":"issue","unit":"INT","cluster":0,"warp":4294967296})",
        R"({"sm":0,"cycle":5,"kind":"issue","unit":"INT","cluster":0,"warp":-1})",
        R"({"sm":0,"cycle":5,"kind":"epoch-update","unit":"INT","criticals":256,"window":8})",
        R"({"sm":0,"truncated":-1})",
        // Values a lenient codec truncated, scaled or clamped.
        R"({"sm":0,"cycle":1.5,"kind":"unit-idle"})",
        R"({"sm":0,"cycle":1e3,"kind":"unit-idle"})",
        R"({"sm":0,"cycle":18446744073709551616,"kind":"unit-idle"})",
        R"({"sm":0,"truncated":2.0})",
        // Missing, misplaced or extra members.
        R"({"sm":0,"cycle":5,"kind":"issue","unit":"INT","cluster":0})",
        R"({"sm":0,"cycle":5,"kind":"unit-idle","warp":1})",
        R"({"sm":0,"cycle":5,"kind":"unit-idle","cluster":0})",
        R"({"sm":0,"truncated":3,"cycle":1})",
        R"({"cycle":5,"kind":"unit-idle"})",
        // Unknown spellings and non-JSON.
        R"({"sm":0,"cycle":5,"kind":"not-a-kind"})",
        R"({"sm":0,"cycle":5,"kind":"unit-idle","unit":"GPU"})",
        R"({"sm":0,"cycle":5,"kind":"gate","unit":"INT","cluster":0,"reason":"sleepy","actv":0})",
        R"({"sm":0,"cycle":5,"kind":"warp-migrate","loc":"nowhere","warp":1})",
        R"({"sm":0,"cycle":5,"kind":"wakeup","unit":"FP","cluster":0,"reason":2})",
        R"({"sm":0,"cycle":0x10,"kind":"unit-idle"})",
        R"({"sm":0,"cycle":5,"kind":"unit-idle"} trailing)",
        "",
        // A reject run must say how many attempts per cycle it stands
        // for, and over how many cycles.
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST"})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":3})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","cycles":3})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":-1,"cycles":1})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":256,"cycles":1})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":0,"cycles":1})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":1,"cycles":0})",
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":1,"cycles":4294967296})",
    };
    for (const char* line : bad) {
        error.clear();
        EXPECT_FALSE(trace::parseJsonlRecord(line, trace::kSchemaVersion,
                                             rec, error))
            << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(JsonlReader, ReadsRejectsAsEachSchemaVersionWroteThem)
{
    const std::string v1 =
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST"})";
    const std::string v2 =
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":7})";
    const std::string v3 =
        R"({"sm":0,"cycle":5,"kind":"mshr-reject","unit":"LDST","attempts":7,"cycles":46})";
    trace::JsonlRecord rec;
    std::string error;
    // v1 wrote one payload-less line per refused attempt.
    ASSERT_TRUE(trace::parseJsonlRecord(v1, 1, rec, error)) << error;
    EXPECT_EQ(rec.event.kind, EventKind::MshrReject);
    EXPECT_EQ(rec.event.arg, 1u);
    EXPECT_EQ(rec.event.value, 1u);
    EXPECT_FALSE(trace::parseJsonlRecord(v2, 1, rec, error))
        << "v1 never wrote an attempt count";
    // v2 wrote one line per tally: a one-cycle run.
    ASSERT_TRUE(trace::parseJsonlRecord(v2, 2, rec, error)) << error;
    EXPECT_EQ(rec.event.arg, 7u);
    EXPECT_EQ(rec.event.value, 1u);
    EXPECT_FALSE(trace::parseJsonlRecord(v3, 2, rec, error))
        << "v2 never wrote a run length";
    error.clear();
    EXPECT_FALSE(trace::parseJsonlRecord(v1, 2, rec, error));
    EXPECT_NE(error.find("attempts"), std::string::npos) << error;
    // v3 writes one line per run.
    ASSERT_TRUE(trace::parseJsonlRecord(v3, 3, rec, error)) << error;
    EXPECT_EQ(rec.event.arg, 7u);
    EXPECT_EQ(rec.event.value, 46u);
    EXPECT_EQ(trace::eventToJson(0, rec.event), v3);
    error.clear();
    EXPECT_FALSE(trace::parseJsonlRecord(v2, 3, rec, error));
    EXPECT_NE(error.find("cycles"), std::string::npos) << error;
}

TEST(JsonlReader, MetaVersionOutsideTheReadRangeIsACleanError)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    const std::string line = splitLines(os.str())[0];
    const std::string current =
        "\"version\":" + std::to_string(trace::kSchemaVersion);
    ASSERT_NE(line.find(current), std::string::npos) << line;
    trace::Meta meta;
    std::string error;
    for (std::uint32_t v = trace::kOldestSchemaVersion;
         v <= trace::kSchemaVersion; ++v) {
        std::string accepted = line;
        accepted.replace(line.find(current), current.size(),
                         "\"version\":" + std::to_string(v));
        EXPECT_TRUE(trace::parseJsonlMeta(accepted, meta, error))
            << accepted << ": " << error;
        EXPECT_EQ(meta.version, v);
    }
    for (std::uint32_t v : {0u, trace::kSchemaVersion + 1}) {
        std::string refused = line;
        refused.replace(line.find(current), current.size(),
                        "\"version\":" + std::to_string(v));
        error.clear();
        EXPECT_FALSE(trace::parseJsonlMeta(refused, meta, error))
            << refused;
        EXPECT_NE(error.find("unsupported trace schema version " +
                             std::to_string(v)),
                  std::string::npos)
            << error;
    }
}

TEST(JsonlReader, MetaLineNeedsEveryKey)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    const std::string line = splitLines(os.str())[0];
    trace::Meta meta;
    std::string error;
    ASSERT_TRUE(trace::parseJsonlMeta(line, meta, error)) << error;

    // Drop the last member: a partial meta line is not a meta line.
    std::string partial = line;
    partial.erase(partial.rfind(','), partial.rfind('}') - 1 -
                                          partial.rfind(','));
    EXPECT_FALSE(trace::parseJsonlMeta(partial, meta, error)) << partial;
    EXPECT_NE(error.find("gateSfu"), std::string::npos) << error;
    EXPECT_FALSE(trace::parseJsonlMeta(
        R"({"sm":0,"cycle":5,"kind":"unit-idle"})", meta, error));
}

// ---- JSONL golden ----

/**
 * One small traced run rendered as JSONL: two SMs, a short kernel, a
 * small MSHR pool (so reject stalls reach the retained tail) and a
 * ring small enough to wrap.
 */
trace::Collector
goldenCollector(GpuConfig config)
{
    config.numSms = 2;
    config.sm.mem.mshrLimit = 8;
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 24;
    trace::RecorderConfig cfg;
    cfg.capacity = 300;
    trace::Collector collector(cfg);
    Gpu(config).run(p, nullptr, &collector);
    return collector;
}

std::string
goldenRun(GpuConfig config)
{
    std::ostringstream os;
    trace::writeJsonl(os, goldenCollector(config));
    return os.str();
}

/**
 * The configurations of tests/golden/trace_jsonl_v3.jsonl's two
 * traces. WarpedGates (GATES scheduler, coordinated blackout, adaptive
 * window) records priority switches and coordinated-drain gates; GTO
 * over conventional INT/FP/SFU gating records greedy switches and
 * uncompensated wakeups.
 */
std::vector<GpuConfig>
goldenConfigs()
{
    GpuConfig gto = makeConfig(Technique::ConvPG);
    gto.sm.scheduler = SchedulerPolicy::Gto;
    gto.sm.pg.gateSfu = true;
    return {makeConfig(Technique::WarpedGates), gto};
}

/** The golden's bytes: the two complete JSONL traces back to back. */
std::string
goldenTraces()
{
    std::string out;
    for (const GpuConfig& config : goldenConfigs())
        out += goldenRun(config);
    return out;
}

TEST(JsonlGolden, WriterBytesMatchTheGolden)
{
    const std::string path =
        std::string(WG_GOLDEN_DIR) + "/trace_jsonl_v3.jsonl";
    const std::string actual = goldenTraces();
    if (std::getenv("WG_REGEN_GOLDEN") != nullptr)
        std::ofstream(path) << actual;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with WG_REGEN_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_TRUE(golden.str() == actual)
        << "JSONL writer bytes differ from " << path;

    // The golden pins the writer only if it exercises every branch of
    // it: each event kind, each reason/location name, a wrap marker,
    // and reject runs longer than one cycle.
    std::set<std::string> seen;
    std::size_t markers = 0, metas = 0, long_runs = 0;
    for (const std::string& line : splitLines(actual)) {
        trace::JsonlRecord rec;
        trace::Meta meta;
        std::string error;
        if (trace::parseJsonlMeta(line, meta, error)) {
            ++metas;
            continue;
        }
        ASSERT_TRUE(
            trace::parseJsonlRecord(line, trace::kSchemaVersion, rec, error))
            << line << ": " << error;
        if (rec.marker) {
            ++markers;
            continue;
        }
        const trace::Event& e = rec.event;
        seen.insert(trace::eventKindName(e.kind));
        if (e.kind == EventKind::Gate)
            seen.insert(trace::gateReasonName(
                static_cast<trace::GateReason>(e.arg)));
        if (e.kind == EventKind::Wakeup)
            seen.insert(trace::wakeReasonName(
                static_cast<trace::WakeReason>(e.arg)));
        if (e.kind == EventKind::WarpMigrate)
            seen.insert("loc" + std::to_string(e.arg));
        if (e.kind == EventKind::MshrReject && e.value > 1)
            ++long_runs;
    }
    EXPECT_EQ(metas, 2u);
    EXPECT_GT(markers, 0u) << "the rings must wrap";
    EXPECT_GT(long_runs, 0u) << "the stalls must span cycles";
    std::set<std::string> want = {"loc0", "loc1", "loc2", "loc3"};
    for (std::size_t k = 0; k < trace::kNumEventKinds; ++k)
        want.insert(trace::eventKindName(static_cast<EventKind>(k)));
    for (std::size_t r = 0; r < trace::kNumGateReasons; ++r)
        want.insert(
            trace::gateReasonName(static_cast<trace::GateReason>(r)));
    for (std::size_t r = 0; r < trace::kNumWakeReasons; ++r)
        want.insert(
            trace::wakeReasonName(static_cast<trace::WakeReason>(r)));
    EXPECT_EQ(seen, want);
}

/** What an old writer's golden reads back as. */
struct FixtureSums
{
    std::size_t metas = 0;
    std::size_t rejectLines = 0;
    std::uint64_t attempts = 0;     ///< summed arg x value, as read
    std::uint64_t attemptsText = 0; ///< summed "attempts":N, as written
};

/** Read tests/golden/@p name, a JSONL fixture of schema @p version. */
FixtureSums
readFixture(const std::string& name, std::uint32_t version)
{
    std::ifstream in(std::string(WG_GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << name;
    FixtureSums sums;
    const std::string key = "\"attempts\":";
    for (std::string line; std::getline(in, line);) {
        trace::Meta meta;
        trace::JsonlRecord rec;
        std::string error;
        if (trace::parseJsonlMeta(line, meta, error)) {
            EXPECT_EQ(meta.version, version);
            ++sums.metas;
            continue;
        }
        EXPECT_TRUE(trace::parseJsonlRecord(line, version, rec, error))
            << line << ": " << error;
        if (line.find("\"kind\":\"mshr-reject\"") != std::string::npos)
            ++sums.rejectLines;
        if (const std::size_t at = line.find(key); at != std::string::npos)
            sums.attemptsText +=
                std::stoull(line.substr(at + key.size()));
        if (!rec.marker && rec.event.kind == EventKind::MshrReject)
            sums.attempts += std::uint64_t{rec.event.arg} * rec.event.value;
    }
    return sums;
}

TEST(JsonlGolden, V1FixtureReadsOneAttemptPerRejectLine)
{
    // The last v1 writer's golden, kept as a reader fixture: each of
    // its payload-less mshr-reject lines stood for one attempt.
    const FixtureSums v1 = readFixture("trace_jsonl_v1.jsonl", 1);
    EXPECT_EQ(v1.metas, 2u);
    EXPECT_GT(v1.rejectLines, 0u);
    EXPECT_EQ(v1.attempts, v1.rejectLines);
}

TEST(JsonlGolden, V2FixtureReadsOneCyclePerRejectLine)
{
    // The last v2 writer's golden, kept as a reader fixture: each of
    // its mshr-reject lines was one tally of its "attempts".
    const FixtureSums v2 = readFixture("trace_jsonl_v2.jsonl", 2);
    EXPECT_EQ(v2.metas, 2u);
    EXPECT_EQ(v2.rejectLines, 71u);
    EXPECT_EQ(v2.attempts, v2.attemptsText);
    EXPECT_EQ(v2.attempts, 142u);
}

// ---- Trace <-> stats conservation ----

/** Per-SM sums of the epoch CSV's mshr_rejects column. */
std::vector<std::uint64_t>
csvRejectsPerSm(const std::string& csv, std::size_t num_sms)
{
    std::vector<std::uint64_t> sums(num_sms, 0);
    const std::vector<std::string> lines = splitLines(csv);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::vector<std::string> cols;
        std::istringstream row(lines[i]);
        for (std::string col; std::getline(row, col, ',');)
            cols.push_back(col);
        EXPECT_GE(cols.size(), 14u) << lines[i];
        if (cols.size() < 14)
            continue;
        sums.at(std::stoul(cols[0])) += std::stoull(cols[13]);
    }
    return sums;
}

/**
 * A whole-run trace at the default ring loses nothing, and per SM the
 * attempts x cycles its mshr-reject runs carry, read back through the
 * JSONL reader, sum to the SM's mshrRejects; so does the epoch CSV's
 * column. FF on and off record the same bytes.
 */
void
expectRejectsConserved(SchedulerPolicy sched)
{
    for (const char* bench : {"hotspot", "bfs"}) {
        std::string jsonl[2];
        for (const bool ff : {true, false}) {
            SCOPED_TRACE(std::string(schedulerPolicyName(sched)) + " " +
                         bench + (ff ? " ff on" : " ff off"));
            GpuConfig config = makeConfig(Technique::WarpedGates);
            config.numSms = 2;
            config.sm.scheduler = sched;
            config.sm.fastForward = ff;
            trace::Collector collector;
            SimSession session = SimSession::open(findBenchmark(bench),
                                                  config, nullptr,
                                                  &collector);
            const SimResult result = session.result();
            EXPECT_EQ(collector.totalOverwritten(), 0u);

            std::ostringstream os;
            trace::writeJsonl(os, collector);
            jsonl[ff] = os.str();
            const std::vector<std::string> lines = splitLines(jsonl[ff]);
            trace::Meta meta;
            std::string error;
            ASSERT_TRUE(trace::parseJsonlMeta(lines.at(0), meta, error))
                << error;
            std::vector<std::uint64_t> traced(config.numSms, 0);
            for (std::size_t i = 1; i < lines.size(); ++i) {
                trace::JsonlRecord rec;
                ASSERT_TRUE(trace::parseJsonlRecord(lines[i], meta.version,
                                                    rec, error))
                    << lines[i] << ": " << error;
                EXPECT_FALSE(rec.marker) << lines[i];
                if (!rec.marker && rec.event.kind == EventKind::MshrReject)
                    traced.at(rec.sm) +=
                        std::uint64_t{rec.event.arg} * rec.event.value;
            }

            std::ostringstream csv;
            trace::writeEpochCsv(csv, collector);
            const std::vector<std::uint64_t> epochs =
                csvRejectsPerSm(csv.str(), config.numSms);

            const GpuSnapshot snap = session.snapshot();
            ASSERT_EQ(snap.sms.size(), config.numSms);
            std::uint64_t total = 0;
            for (SmId s = 0; s < config.numSms; ++s) {
                const std::uint64_t stat = snap.sms[s].stats.mshrRejects;
                EXPECT_EQ(traced[s], stat) << "sm " << s;
                EXPECT_EQ(epochs[s], stat) << "sm " << s;
                total += stat;
            }
            EXPECT_GT(total, 0u) << "the run must stall on MSHRs";
            EXPECT_EQ(total, result.aggregate.mshrRejects);
        }
        EXPECT_TRUE(jsonl[0] == jsonl[1])
            << bench << ": FF on and off traces differ";
    }
}

// Each scheduler policy orders the probes, and so the tallies,
// differently.
TEST(TraceConservation, RejectAttemptsSumToEachSmsStat)
{
    expectRejectsConserved(SchedulerPolicy::Gates);
}

TEST(TraceConservation, RejectAttemptsSumUnderTwoLevel)
{
    expectRejectsConserved(SchedulerPolicy::TwoLevel);
}

TEST(TraceConservation, RejectAttemptsSumUnderGto)
{
    expectRejectsConserved(SchedulerPolicy::Gto);
}

// ---- Reject runs across checkpoints and epochs ----

/** A whole traced 2-SM hotspot run under WarpedGates. */
GpuConfig
runConfig(bool fast_forward)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    config.numSms = 2;
    config.sm.fastForward = fast_forward;
    return config;
}

std::string
jsonlOf(const trace::Collector& collector)
{
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    return os.str();
}

std::string
csvOf(const trace::Collector& collector)
{
    std::ostringstream os;
    trace::writeEpochCsv(os, collector);
    return os.str();
}

TEST(RejectRun, CheckpointInsideAnOpenRunResumesByteIdentically)
{
    const BenchmarkProfile& profile = findBenchmark("hotspot");
    for (const bool ff : {true, false}) {
        SCOPED_TRACE(ff ? "ff on" : "ff off");
        const GpuConfig config = runConfig(ff);
        trace::Collector whole;
        SimSession::open(profile, config, nullptr, &whole).result();

        // Cut SM 0's longest stall in the middle, off an epoch edge.
        Event longest;
        whole.recorder(0)->forEach([&](const Event& e) {
            if (e.kind == EventKind::MshrReject && e.value > longest.value)
                longest = e;
        });
        ASSERT_GE(longest.value, 4u);
        Cycle cut = longest.cycle + longest.value / 2;
        if (cut % config.sm.pg.epochLength == 0)
            ++cut;

        trace::Collector first;
        SimSession session =
            SimSession::open(profile, config, nullptr, &first);
        session.runUntil(cut);
        const GpuSnapshot snap = session.snapshot();
        // The checkpoint holds the run's first part, open at the cut.
        Event open;
        for (const Event& e : snap.sms[0].traceEvents)
            if (e.kind == EventKind::MshrReject)
                open = e;
        EXPECT_EQ(open.cycle, longest.cycle);
        EXPECT_EQ(open.cycle + open.value, cut);

        trace::Collector second;
        std::string error;
        auto resumed = SimSession::restore(snap, profile, config, nullptr,
                                           &second, nullptr, &error);
        ASSERT_NE(resumed, nullptr) << error;
        resumed->result();
        EXPECT_TRUE(jsonlOf(whole) == jsonlOf(second))
            << "split trace differs from the uninterrupted one";
    }
}

TEST(RejectRun, EpochCsvEqualsTheCsvOfOneRejectPerCycle)
{
    trace::Collector runs;
    Gpu(runConfig(true)).run(findBenchmark("hotspot"), nullptr, &runs);
    ASSERT_EQ(runs.totalOverwritten(), 0u);
    const Cycle epoch = runs.meta.epochLength;

    // The same events with each run expanded to one single-cycle
    // reject per cycle, in cycle order (as schema v2 recorded them).
    std::vector<std::vector<Event>> expanded(runs.numSms());
    std::size_t crossing = 0, longest = 0;
    for (SmId s = 0; s < runs.numSms(); ++s) {
        runs.recorder(s)->forEach([&](const Event& e) {
            if (e.kind != EventKind::MshrReject) {
                expanded[s].push_back(e);
                return;
            }
            if (e.cycle / epoch != (e.cycle + e.value - 1) / epoch)
                ++crossing;
            Event one = e;
            one.value = 1;
            for (Cycle c = e.cycle; c < e.cycle + e.value; ++c) {
                one.cycle = c;
                expanded[s].push_back(one);
            }
        });
        std::stable_sort(expanded[s].begin(), expanded[s].end(),
                         [](const Event& a, const Event& b) {
                             return a.cycle < b.cycle;
                         });
        longest = std::max(longest, expanded[s].size());
    }
    ASSERT_GT(crossing, 0u) << "some stall must cross an epoch edge";

    trace::RecorderConfig ring;
    ring.capacity = longest;
    trace::Collector cycles(ring);
    cycles.prepare(runs.numSms());
    cycles.meta = runs.meta;
    for (SmId s = 0; s < runs.numSms(); ++s)
        for (const Event& e : expanded[s])
            cycles.recorder(s)->record(e.cycle, e.kind, e.unit, e.cluster,
                                       e.arg, e.value);
    ASSERT_GT(cycles.totalEvents(), runs.totalEvents());
    EXPECT_EQ(csvOf(runs), csvOf(cycles));
}

TEST(RejectRun, EpochCsvSplitsARunAtEachEdgeItCrosses)
{
    trace::Collector collector;
    collector.prepare(1);
    collector.meta.epochLength = 100;
    trace::Recorder* r = collector.recorder(0);
    r->record(50, EventKind::Issue, 0, 0, 0, 1);
    // 90..219: 10 cycles in epoch 0, 100 in epoch 1, 20 in epoch 2.
    for (Cycle c = 90; c < 220; ++c)
        r->recordReject(c, kLdst, 2);
    r->record(250, EventKind::Issue, 1, 0, 0, 2);
    ASSERT_EQ(r->size(), 3u);

    const std::vector<std::string> lines = splitLines(csvOf(collector));
    const std::vector<std::string> rows(lines.begin() + 1, lines.end());
    const std::vector<std::string> want = {
        "0,0,0,1,0,0,0,0,0,0,0,0,0,20,,",
        "0,1,100,0,0,0,0,0,0,0,0,0,0,200,,", // reached only by the run
        "0,2,200,0,1,0,0,0,0,0,0,0,0,40,,"};
    EXPECT_EQ(rows, want);
}

// ---- Chunked writers and the block reader on the pool ----

/** Record @p n events of every kind, unit and cluster form into @p r. */
void
recordSynthetic(trace::Recorder& r, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const auto kind = static_cast<EventKind>(i % trace::kNumEventKinds);
        const auto unit = static_cast<std::uint8_t>(
            i % 5 == 4 ? trace::kNoUnit : i % kNumUnitClasses);
        const auto cluster =
            static_cast<std::uint8_t>(i % 3 == 2 ? trace::kNoCluster : i % 2);
        r.record(i, kind, unit, cluster, static_cast<std::uint8_t>(i % 3),
                 static_cast<std::uint32_t>(i));
    }
}

/** The JSONL text one eventToJson line at a time, as the format reads. */
std::string
plainJsonl(const trace::Collector& collector)
{
    std::string out =
        "{\"meta\":" + codec::encode(collector.meta).dump() + "}\n";
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const trace::Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        if (r->overwritten() > 0)
            out += "{\"sm\":" + std::to_string(s) + ",\"truncated\":" +
                   std::to_string(r->overwritten()) + "}\n";
        for (const Event& e : r->events())
            out += trace::eventToJson(s, e) + "\n";
    }
    return out;
}

/** The chrome document one event at a time, as the format reads. */
std::string
plainChrome(const trace::Collector& collector)
{
    // One lane per pipeline, then the control lane.
    auto tid = [](const Event& e) -> unsigned {
        const unsigned cluster = e.cluster == trace::kNoCluster ? 0 : e.cluster;
        switch (e.unit) {
          case static_cast<std::uint8_t>(UnitClass::Int): return cluster;
          case static_cast<std::uint8_t>(UnitClass::Fp): return 2 + cluster;
          case static_cast<std::uint8_t>(UnitClass::Sfu): return 4;
          case static_cast<std::uint8_t>(UnitClass::Ldst): return 5;
        }
        return 8;
    };
    const std::vector<std::pair<unsigned, std::string>> lanes = {
        {0, "INT0"}, {1, "INT1"}, {2, "FP0"}, {3, "FP1"},
        {4, "SFU"},  {5, "LDST"}, {8, "control"}};
    std::string out = "{\"traceEvents\":[";
    std::string sep;
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const trace::Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        const std::string sm = std::to_string(s);
        out += sep + "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + sm +
               ",\"args\":{\"name\":\"SM " + sm + "\"}}";
        sep = ",\n";
        for (const auto& [lane, name] : lanes)
            out += sep + "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                   sm + ",\"tid\":" + std::to_string(lane) +
                   ",\"args\":{\"name\":\"" + name + "\"}}";
        for (const Event& e : r->events())
            out += sep + "{\"name\":\"" + trace::eventKindName(e.kind) +
                   "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                   std::to_string(e.cycle) + ",\"pid\":" + sm +
                   ",\"tid\":" + std::to_string(tid(e)) +
                   ",\"args\":{\"detail\":" + trace::eventToJson(s, e) +
                   "}}";
    }
    return out + "],\"displayTimeUnit\":\"ns\"}\n";
}

std::string
jsonlOn(const trace::Collector& collector, ThreadPool* pool)
{
    std::ostringstream os;
    trace::writeJsonl(os, collector, pool);
    return os.str();
}

std::string
chromeOn(const trace::Collector& collector, ThreadPool* pool)
{
    std::ostringstream os;
    trace::writeChromeTrace(os, collector, pool);
    return os.str();
}

/**
 * Both chunked writers, on the shared pool, a 1-worker pool and
 * inline, write exactly the plain per-event text.
 */
void
expectWritersMatchThePlainText(const trace::Collector& collector)
{
    ThreadPool one(1);
    const std::string jsonl = plainJsonl(collector);
    const std::string chrome = plainChrome(collector);
    for (ThreadPool* pool : {&ThreadPool::global(), &one,
                             static_cast<ThreadPool*>(nullptr)}) {
        EXPECT_TRUE(jsonlOn(collector, pool) == jsonl)
            << "JSONL, pool " << (pool ? pool->size() : 0);
        EXPECT_TRUE(chromeOn(collector, pool) == chrome)
            << "chrome, pool " << (pool ? pool->size() : 0);
    }
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    EXPECT_TRUE(os.str() == jsonl) << "the default pool";
}

TEST(ChunkedWriter, PlainTextIsTheGoldenBytes)
{
    // The plain text is what the writer wrote one line at a time; the
    // golden pins it, wrap markers included.
    std::ifstream in(std::string(WG_GOLDEN_DIR) + "/trace_jsonl_v3.jsonl");
    std::ostringstream golden;
    golden << in.rdbuf();
    std::string plain;
    for (const GpuConfig& config : goldenConfigs()) {
        const trace::Collector collector = goldenCollector(config);
        ASSERT_GT(collector.totalOverwritten(), 0u);
        plain += plainJsonl(collector);
        expectWritersMatchThePlainText(collector);
    }
    EXPECT_TRUE(golden.str() == plain);
}

TEST(ChunkedWriter, TraceOfManyChunksIsWrittenInOrder)
{
    trace::RecorderConfig cfg;
    cfg.capacity = 200'000;
    trace::Collector collector(cfg);
    collector.prepare(2);
    collector.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 2);
    // Many chunks on SM 0, part of one on SM 1.
    recordSynthetic(*collector.recorder(0), 100'000);
    recordSynthetic(*collector.recorder(1), 5);
    expectWritersMatchThePlainText(collector);
}

TEST(ChunkedWriter, WrappedRingKeepsItsMarkerFirst)
{
    trace::RecorderConfig cfg;
    cfg.capacity = 50'000;
    trace::Collector collector(cfg);
    collector.prepare(2);
    collector.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 2);
    // Both SMs wrap, so each is written as its ring's two runs.
    recordSynthetic(*collector.recorder(0), 120'000);
    recordSynthetic(*collector.recorder(1), 73'333);
    ASSERT_EQ(collector.recorder(1)->overwritten(), 23'333u);
    expectWritersMatchThePlainText(collector);
    const std::string text = jsonlOn(collector, &ThreadPool::global());
    const std::size_t marker = text.find("{\"sm\":1,\"truncated\":23333}\n");
    ASSERT_NE(marker, std::string::npos);
    EXPECT_EQ(text.find("{\"sm\":1,"), marker)
        << "the marker heads its SM's lines";
}

TEST(ChunkedWriter, FilteredAndSilentSmsMatch)
{
    // --trace-sm leaves null recorders before and after the traced SM.
    trace::RecorderConfig filtered;
    filtered.smFilter = 1;
    trace::Collector one_sm(filtered);
    one_sm.prepare(3);
    one_sm.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 3);
    recordSynthetic(*one_sm.recorder(1), 40'000);
    expectWritersMatchThePlainText(one_sm);

    // An SM that recorded nothing still heads its chrome lanes.
    trace::Collector silent;
    silent.prepare(3);
    silent.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 3);
    recordSynthetic(*silent.recorder(0), 10);
    recordSynthetic(*silent.recorder(2), 10);
    expectWritersMatchThePlainText(silent);
    EXPECT_NE(chromeOn(silent, nullptr).find("\"SM 1\""), std::string::npos);

    trace::Collector empty;
    empty.prepare(2);
    expectWritersMatchThePlainText(empty);
}

TEST(ChunkedWriter, CallFromAPoolTaskOnOneWorkerCompletes)
{
    // The writer's task waits on its own chunks: on a 1-worker pool
    // it must run them itself rather than wait for a free worker.
    trace::RecorderConfig cfg;
    cfg.capacity = 200'000;
    trace::Collector collector(cfg);
    collector.prepare(1);
    recordSynthetic(*collector.recorder(0), 150'000);
    ThreadPool pool(1);
    auto jsonl = pool.submit([&] { return jsonlOn(collector, &pool); });
    auto chrome = pool.submit([&] { return chromeOn(collector, &pool); });
    ASSERT_EQ(jsonl.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    ASSERT_EQ(chrome.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    EXPECT_TRUE(jsonl.get() == plainJsonl(collector));
    EXPECT_TRUE(chrome.get() == plainChrome(collector));
}

/** One delivered line: its number, then its record or "malformed". */
std::string
describeLine(std::uint64_t number, bool ok, const trace::JsonlRecord& rec)
{
    std::string out = std::to_string(number) + " ";
    if (!ok)
        return out + "malformed";
    if (rec.marker)
        return out + "truncated " + std::to_string(rec.sm) + " " +
               std::to_string(rec.truncated);
    return out + std::to_string(rec.sm) + " " + encoded(rec.event);
}

/** The body of @p text (after its first line) through readJsonl. */
std::vector<std::string>
readBody(const std::string& text, std::uint32_t version, ThreadPool* pool)
{
    std::istringstream in(text);
    std::string meta;
    std::getline(in, meta);
    std::vector<std::string> got;
    trace::readJsonl(in, version, pool, [&](const trace::JsonlLine& l) {
        got.push_back(describeLine(l.number, l.ok, l.record));
    });
    return got;
}

/** The same, one getline and parseJsonlRecord at a time. */
std::vector<std::string>
readBodyByLine(const std::string& text, std::uint32_t version)
{
    std::istringstream in(text);
    std::string line;
    std::getline(in, line);
    std::vector<std::string> want;
    for (std::uint64_t number = 2; std::getline(in, line); ++number) {
        if (line.empty())
            continue;
        trace::JsonlRecord rec;
        std::string error;
        const bool ok = trace::parseJsonlRecord(line, version, rec, error);
        want.push_back(describeLine(number, ok, rec));
    }
    return want;
}

void
expectReaderMatchesLineByLine(const std::string& text, std::uint32_t version)
{
    const std::vector<std::string> want = readBodyByLine(text, version);
    ThreadPool one(1);
    for (ThreadPool* pool : {&ThreadPool::global(), &one,
                             static_cast<ThreadPool*>(nullptr)})
        EXPECT_TRUE(readBody(text, version, pool) == want)
            << "pool " << (pool ? pool->size() : 0);
}

TEST(BlockReader, ReadsInFileOrderAcrossBlockEdges)
{
    trace::RecorderConfig cfg;
    cfg.capacity = 60'000;
    trace::Collector collector(cfg);
    collector.prepare(2);
    collector.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 2);
    recordSynthetic(*collector.recorder(0), 80'000);
    recordSynthetic(*collector.recorder(1), 30'000);
    // About 8 MB: several read blocks. Blank lines and malformed ones
    // land in different blocks, one malformed line is longer than a
    // block, and the last line has no newline.
    std::vector<std::string> lines = splitLines(plainJsonl(collector));
    ASSERT_GT(lines.size(), 90'000u);
    for (std::size_t at : {10u, 11u, 40'000u, 85'000u})
        lines[at].clear();
    for (std::size_t at : {3u, 20'000u, 50'000u, 70'000u, 88'000u, 89'000u})
        lines[at] = "{\"sm\":0,\"cycle\":1,\"kind\":\"nope\"}";
    lines[60'000] = std::string(3u << 20, 'x');
    std::string text;
    for (const std::string& line : lines)
        text += line + "\n";
    text.pop_back();
    ASSERT_GT(text.size(), 8u << 20);

    expectReaderMatchesLineByLine(text, trace::kSchemaVersion);
    const std::vector<std::string> got =
        readBody(text, trace::kSchemaVersion, &ThreadPool::global());
    ASSERT_EQ(got.size(), lines.size() - 1 - 4);
    std::vector<std::string> malformed;
    for (const std::string& g : got)
        if (g.ends_with(" malformed"))
            malformed.push_back(g);
    EXPECT_EQ(malformed,
              (std::vector<std::string>{
                  "4 malformed", "20001 malformed", "50001 malformed",
                  "60001 malformed", "70001 malformed", "88001 malformed",
                  "89001 malformed"}));
    EXPECT_EQ(got.back(),
              describeLine(lines.size(), true, [&] {
                  trace::JsonlRecord rec;
                  std::string error;
                  trace::parseJsonlRecord(lines.back(), trace::kSchemaVersion,
                                          rec, error);
                  return rec;
              }()))
        << "the last line, without a newline, is read";
}

TEST(BlockReader, BlankAndEmptyBodies)
{
    const std::string meta = "{\"meta\":{}}";
    EXPECT_TRUE(readBody(meta, 3, &ThreadPool::global()).empty());
    EXPECT_TRUE(readBody(meta + "\n", 3, nullptr).empty());
    EXPECT_TRUE(readBody(meta + "\n\n\n\n", 3, &ThreadPool::global()).empty());
    expectReaderMatchesLineByLine(meta + "\n\nx\n\n", 3);
}

TEST(BlockReader, FixturesReadAsLineByLine)
{
    // Each fixture holds two traces back to back; the second meta
    // line is not a body line, so both readers call it malformed.
    for (const auto& [name, version] :
         std::vector<std::pair<std::string, std::uint32_t>>{
             {"trace_jsonl_v1.jsonl", 1},
             {"trace_jsonl_v2.jsonl", 2},
             {"trace_jsonl_v3.jsonl", 3}}) {
        std::ifstream in(std::string(WG_GOLDEN_DIR) + "/" + name);
        ASSERT_TRUE(in.good()) << name;
        std::ostringstream text;
        text << in.rdbuf();
        SCOPED_TRACE(name);
        expectReaderMatchesLineByLine(text.str(), version);
        const std::vector<std::string> got =
            readBody(text.str(), version, &ThreadPool::global());
        EXPECT_EQ(std::count_if(got.begin(), got.end(),
                                [](const std::string& g) {
                                    return g.ends_with(" malformed");
                                }),
                  1)
            << "only the second meta line";
    }
}

TEST(Event, KindNamesRoundTrip)
{
    for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
        auto kind = static_cast<EventKind>(k);
        trace::EventKind parsed;
        ASSERT_TRUE(
            trace::parseEventKind(trace::eventKindName(kind), parsed))
            << trace::eventKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    trace::EventKind parsed;
    EXPECT_FALSE(trace::parseEventKind("not-a-kind", parsed));
}

} // namespace
} // namespace wg
