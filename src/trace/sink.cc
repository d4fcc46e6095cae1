#include "sink.hh"

#include <array>
#include <fstream>
#include <ostream>
#include <sstream>

#include "arch/instr.hh"
#include "common/codec.hh"
#include "common/logging.hh"

namespace wg::trace {

namespace {

/** WarpLoc spellings (values match wg::WarpLoc; see sched/warp.hh). */
constexpr std::array<const char*, 4> kLocNames = {"active", "pending",
                                                 "waiting", "finished"};

/** How an event kind spells its `arg` on a JSONL line. */
enum class ArgForm : std::uint8_t {
    Number,
    GateReason, ///< gateReasonName
    WakeReason, ///< wakeReasonName
    WarpLoc,    ///< kLocNames
};

/**
 * Payload keys of one event kind: the arg member (when the kind has
 * one) and how it is spelled, then the value member. Written and read
 * in that order after the common sm/cycle/kind/unit/cluster keys.
 */
struct PayloadKeys
{
    const char* argKey = nullptr;
    ArgForm arg = ArgForm::Number;
    const char* valueKey = nullptr;
};

/** The per-kind payload table, indexed by EventKind. */
constexpr std::array<PayloadKeys, kNumEventKinds> kPayload = {{
    {nullptr, ArgForm::Number, "warp"},              // Issue
    {},                                              // UnitIdle
    {nullptr, ArgForm::Number, "idleRun"},           // UnitBusy
    {"reason", ArgForm::GateReason, "actv"},         // Gate
    {nullptr, ArgForm::Number, "held"},              // BetExpire
    {},                                              // WakeupDenied
    {"reason", ArgForm::WakeReason, nullptr},        // Wakeup
    {},                                              // WakeupDone
    {"criticals", ArgForm::Number, "window"},        // EpochUpdate
    {},                                              // PrioritySwitch
    {nullptr, ArgForm::Number, "warp"},              // GreedySwitch
    {"loc", ArgForm::WarpLoc, "warp"},               // WarpMigrate
    {nullptr, ArgForm::Number, "outstanding"},       // MshrFill
    {nullptr, ArgForm::Number, "outstanding"},       // MshrDrain
    {},                                              // MshrReject
}};

const PayloadKeys&
payloadKeys(EventKind kind)
{
    return kPayload[static_cast<std::size_t>(kind)];
}

/** Name of a spelled @p arg, or nullptr when @p form has none for it. */
const char*
argName(ArgForm form, unsigned arg)
{
    switch (form) {
      case ArgForm::Number:
        break;
      case ArgForm::GateReason:
        if (arg < kNumGateReasons)
            return gateReasonName(static_cast<GateReason>(arg));
        break;
      case ArgForm::WakeReason:
        if (arg < kNumWakeReasons)
            return wakeReasonName(static_cast<WakeReason>(arg));
        break;
      case ArgForm::WarpLoc:
        if (arg < kLocNames.size())
            return kLocNames[arg];
        break;
    }
    return nullptr;
}

const char*
unitName(std::uint8_t unit)
{
    if (unit == kNoUnit)
        return nullptr;
    return unitClassName(static_cast<UnitClass>(unit));
}

/** Append `,"key":value`. */
void
appendNumber(std::string& out, const char* key, std::uint64_t value)
{
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
}

/** Append `,"key":"value"` (names only: nothing to escape). */
void
appendString(std::string& out, const char* key, const char* value)
{
    out += ",\"";
    out += key;
    out += "\":\"";
    out += value;
    out += '"';
}

/** Append the JSONL object of one event (no trailing newline). */
void
appendEvent(std::string& out, SmId sm, const Event& e)
{
    out += "{\"sm\":";
    out += std::to_string(sm);
    appendNumber(out, "cycle", e.cycle);
    appendString(out, "kind", eventKindName(e.kind));
    if (const char* u = unitName(e.unit)) {
        appendString(out, "unit", u);
        if (e.cluster != kNoCluster)
            appendNumber(out, "cluster", e.cluster);
    }
    const PayloadKeys& p = payloadKeys(e.kind);
    if (p.argKey != nullptr && p.arg == ArgForm::Number) {
        appendNumber(out, p.argKey, e.arg);
    } else if (p.argKey != nullptr) {
        const char* name = argName(p.arg, e.arg);
        appendString(out, p.argKey, name != nullptr ? name : "?");
    }
    if (p.valueKey != nullptr)
        appendNumber(out, p.valueKey, e.value);
    out += '}';
}

/** chrome://tracing tid for an event (one lane per pipeline). */
unsigned
chromeTid(const Event& e)
{
    if (e.unit == kNoUnit)
        return 8; // control lane: scheduler / warps / MSHRs
    auto uc = static_cast<UnitClass>(e.unit);
    unsigned cluster = e.cluster == kNoCluster ? 0 : e.cluster;
    switch (uc) {
      case UnitClass::Int: return 0 + cluster;
      case UnitClass::Fp: return 2 + cluster;
      case UnitClass::Sfu: return 4;
      case UnitClass::Ldst: return 5;
    }
    return 8;
}

const char*
chromeTidName(unsigned tid)
{
    switch (tid) {
      case 0: return "INT0";
      case 1: return "INT1";
      case 2: return "FP0";
      case 3: return "FP1";
      case 4: return "SFU";
      case 5: return "LDST";
      case 8: return "control";
    }
    return "?";
}

} // namespace

const char*
sinkFormatName(SinkFormat format)
{
    switch (format) {
      case SinkFormat::Chrome: return "chrome";
      case SinkFormat::Jsonl: return "jsonl";
      case SinkFormat::Csv: return "csv";
    }
    return "?";
}

bool
parseSinkFormat(const std::string& name, SinkFormat& out)
{
    for (SinkFormat f :
         {SinkFormat::Chrome, SinkFormat::Jsonl, SinkFormat::Csv}) {
        if (name == sinkFormatName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

std::string
eventToJson(SmId sm, const Event& e)
{
    std::string out;
    appendEvent(out, sm, e);
    return out;
}

void
writeJsonl(std::ostream& os, const Collector& collector)
{
    os << "{\"meta\":" << codec::encode(collector.meta).dump() << "}\n";
    std::string line;
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        if (r->overwritten() > 0)
            os << "{\"sm\":" << s << ",\"truncated\":" << r->overwritten()
               << "}\n";
        r->forEach([&](const Event& e) {
            line.clear();
            appendEvent(line, s, e);
            line += '\n';
            os << line;
        });
    }
}

namespace {

bool
parseUnitName(const std::string& name, std::uint8_t& out)
{
    for (unsigned u = 0; u < kNumUnitClasses; ++u) {
        if (name == unitClassName(static_cast<UnitClass>(u))) {
            out = static_cast<std::uint8_t>(u);
            return true;
        }
    }
    return false;
}

bool
parseArgName(ArgForm form, const std::string& name, std::uint8_t& out)
{
    for (unsigned a = 0; const char* n = argName(form, a); ++a) {
        if (name == n) {
            out = static_cast<std::uint8_t>(a);
            return true;
        }
    }
    return false;
}

/** Read the event members of @p doc (after "sm") into @p e. */
bool
parseEvent(const Json& doc, const std::string& path, Event& e,
           std::size_t& keys, std::string& error)
{
    using namespace codec;
    const JsonPath at(path);
    std::string name;
    if (!decodeMember(doc, at, "cycle", e.cycle, error) ||
        !getString(doc, path, "kind", name, error))
        return false;
    if (!parseEventKind(name.c_str(), e.kind))
        return failAt(error, path + ".kind", "unknown event kind");
    keys += 2;
    if (doc.find("unit") != nullptr) {
        if (!getString(doc, path, "unit", name, error))
            return false;
        if (!parseUnitName(name, e.unit))
            return failAt(error, path + ".unit", "unknown unit class");
        ++keys;
        if (doc.find("cluster") != nullptr) {
            if (!decodeMember(doc, at, "cluster", e.cluster, error))
                return false;
            ++keys;
        }
    }
    const PayloadKeys& p = payloadKeys(e.kind);
    if (p.argKey != nullptr) {
        ++keys;
        if (p.arg == ArgForm::Number) {
            if (!decodeMember(doc, at, p.argKey, e.arg, error))
                return false;
        } else {
            if (!getString(doc, path, p.argKey, name, error))
                return false;
            if (!parseArgName(p.arg, name, e.arg))
                return failAt(error, path + "." + p.argKey,
                              "unknown name '" + name + "'");
        }
    }
    if (p.valueKey != nullptr) {
        ++keys;
        if (!decodeMember(doc, at, p.valueKey, e.value, error))
            return false;
    }
    return true;
}

} // namespace

bool
parseJsonlMeta(const std::string& line, Meta& out, std::string& error)
{
    const std::string path = "$";
    Json doc;
    return Json::parse(line, doc, error) &&
           codec::decodeMember(doc, codec::JsonPath(path), "meta", out,
                               error);
}

bool
parseJsonlRecord(const std::string& line, JsonlRecord& out,
                 std::string& error)
{
    const std::string path = "$";
    const codec::JsonPath at(path);
    Json doc;
    out = JsonlRecord{};
    if (!Json::parse(line, doc, error) ||
        !codec::decodeMember(doc, at, "sm", out.sm, error))
        return false;
    std::size_t keys = 1;
    if (doc.find("truncated") != nullptr) {
        out.marker = true;
        ++keys;
        if (!codec::decodeMember(doc, at, "truncated", out.truncated,
                                 error))
            return false;
    } else if (!parseEvent(doc, path, out.event, keys, error)) {
        return false;
    }
    // Every expected key was found and the DOM rejects duplicates, so
    // a count mismatch means a member the writer never emits.
    if (doc.members().size() != keys)
        return codec::failAt(error, path, "unexpected member");
    return true;
}

void
writeChromeTrace(std::ostream& os, const Collector& collector)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&os, &first](const std::string& obj) {
        if (!first)
            os << ",\n";
        first = false;
        os << obj;
    };

    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        {
            std::ostringstream m;
            m << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << s
              << ",\"args\":{\"name\":\"SM " << s << "\"}}";
            emit(m.str());
        }
        for (unsigned tid : {0u, 1u, 2u, 3u, 4u, 5u, 8u}) {
            std::ostringstream m;
            m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << s
              << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
              << chromeTidName(tid) << "\"}}";
            emit(m.str());
        }
        r->forEach([&](const Event& e) {
            std::ostringstream ev;
            ev << "{\"name\":\"" << eventKindName(e.kind)
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.cycle
               << ",\"pid\":" << s << ",\"tid\":" << chromeTid(e)
               << ",\"args\":{\"detail\":" << eventToJson(s, e) << "}}";
            emit(ev.str());
        });
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
}

void
writeEpochCsv(std::ostream& os, const Collector& collector)
{
    const Cycle epoch_len =
        collector.meta.epochLength > 0 ? collector.meta.epochLength : 1000;

    os << "sm,epoch,start_cycle,issues_int,issues_fp,issues_sfu,"
          "issues_ldst,gates,bet_expiries,wakeups,critical_wakeups,"
          "wakeups_denied,mshr_fills,mshr_rejects,window_int,window_fp\n";

    struct EpochRow
    {
        std::array<std::uint64_t, kNumUnitClasses> issues = {};
        std::uint64_t gates = 0, betExpiries = 0, wakeups = 0;
        std::uint64_t criticals = 0, denied = 0;
        std::uint64_t mshrFills = 0, mshrRejects = 0;
        std::int64_t windowInt = -1, windowFp = -1;
    };

    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        EpochRow row;
        std::int64_t epoch = -1;
        auto flush = [&]() {
            if (epoch < 0)
                return;
            os << s << "," << epoch << ","
               << static_cast<Cycle>(epoch) * epoch_len;
            for (std::uint64_t v : row.issues)
                os << "," << v;
            os << "," << row.gates << "," << row.betExpiries << ","
               << row.wakeups << "," << row.criticals << "," << row.denied
               << "," << row.mshrFills << "," << row.mshrRejects << ",";
            if (row.windowInt >= 0)
                os << row.windowInt;
            os << ",";
            if (row.windowFp >= 0)
                os << row.windowFp;
            os << "\n";
        };
        r->forEach([&](const Event& e) {
            auto ep = static_cast<std::int64_t>(e.cycle / epoch_len);
            if (ep != epoch) {
                flush();
                epoch = ep;
                row = EpochRow();
            }
            switch (e.kind) {
              case EventKind::Issue:
                if (e.unit < kNumUnitClasses)
                    ++row.issues[e.unit];
                break;
              case EventKind::Gate: ++row.gates; break;
              case EventKind::BetExpire: ++row.betExpiries; break;
              case EventKind::Wakeup:
                ++row.wakeups;
                if (static_cast<WakeReason>(e.arg) == WakeReason::Critical)
                    ++row.criticals;
                break;
              case EventKind::WakeupDenied: ++row.denied; break;
              case EventKind::MshrFill: ++row.mshrFills; break;
              case EventKind::MshrReject: ++row.mshrRejects; break;
              case EventKind::EpochUpdate:
                if (e.unit == static_cast<std::uint8_t>(UnitClass::Int))
                    row.windowInt = e.value;
                else if (e.unit ==
                         static_cast<std::uint8_t>(UnitClass::Fp))
                    row.windowFp = e.value;
                break;
              default:
                break;
            }
        });
        flush();
    }
}

void
writeTrace(std::ostream& os, const Collector& collector, SinkFormat format)
{
    switch (format) {
      case SinkFormat::Chrome: writeChromeTrace(os, collector); return;
      case SinkFormat::Jsonl: writeJsonl(os, collector); return;
      case SinkFormat::Csv: writeEpochCsv(os, collector); return;
    }
    panic("writeTrace: unknown sink format");
}

void
writeTraceFile(const std::string& path, const Collector& collector,
               SinkFormat format)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '", path, "' for writing");
    writeTrace(out, collector, format);
    out.flush();
    if (!out)
        fatal("short write to trace file '", path, "'");
}

} // namespace wg::trace
