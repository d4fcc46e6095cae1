#include "sink.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <string_view>
#include <vector>

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
    {"attempts", ArgForm::Number, "cycles"},         // MshrReject
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

/**
 * Room reserved per formatted line. The fragments are short names, so
 * an event object is at most ~150 bytes and a chrome event ~270.
 */
constexpr std::size_t kMaxLine = 512;

/**
 * Buffered text output: lines are formatted straight into a fixed
 * local block, which goes to the stream with one write() whenever the
 * next line might not fit.
 */
class BlockWriter
{
  public:
    explicit BlockWriter(std::ostream& os) : os_(os) {}
    ~BlockWriter() { flush(); }
    BlockWriter(const BlockWriter&) = delete;
    BlockWriter& operator=(const BlockWriter&) = delete;

    /** Room for one line of at most kMaxLine bytes; commit() it. */
    char*
    line()
    {
        if (kBlock - len_ < kMaxLine)
            flush();
        return block_ + len_;
    }

    void
    commit(const char* end)
    {
        len_ = static_cast<std::size_t>(end - block_);
    }

    void
    append(std::string_view text)
    {
        if (kBlock - len_ < text.size())
            flush();
        if (text.size() > kBlock) {
            os_.write(text.data(),
                      static_cast<std::streamsize>(text.size()));
            return;
        }
        std::memcpy(block_ + len_, text.data(), text.size());
        len_ += text.size();
    }

    void
    flush()
    {
        os_.write(block_, static_cast<std::streamsize>(len_));
        len_ = 0;
    }

  private:
    static constexpr std::size_t kBlock = 64 * 1024;
    std::ostream& os_;
    std::size_t len_ = 0;
    char block_[kBlock];
};

/** Copy @p text to @p p; @return the end. */
char*
put(char* p, std::string_view text)
{
    std::memcpy(p, text.data(), text.size());
    return p + text.size();
}

/** Decimal @p value at @p p; @return the end. */
char*
putNumber(char* p, std::uint64_t value)
{
    return std::to_chars(p, p + 20, value).ptr;
}

/**
 * Every key of a JSONL line with its constant value, derived once from
 * kPayload and the name functions: `,"kind":"gate"`, `,"unit":"INT"`,
 * `,"reason":"demand"`, `,"warp":`.
 */
struct Fragments
{
    std::array<std::string, kNumEventKinds> kind;
    std::array<std::string, kNumUnitClasses + 1> unit; ///< last: "?"
    /** Number-form arg key, or every spelled arg then "?" per kind. */
    std::array<std::vector<std::string>, kNumEventKinds> arg;
    std::array<std::string, kNumEventKinds> value;

    Fragments()
    {
        auto keyed = [](const char* key) {
            return std::string(",\"") + key + "\":";
        };
        auto named = [&](const char* key, const char* name) {
            return keyed(key) + '"' + name + '"';
        };
        for (unsigned u = 0; u < kNumUnitClasses; ++u)
            unit[u] = named("unit",
                            unitClassName(static_cast<UnitClass>(u)));
        unit[kNumUnitClasses] = named("unit", "?");
        for (std::size_t k = 0; k < kNumEventKinds; ++k) {
            kind[k] = named("kind",
                            eventKindName(static_cast<EventKind>(k)));
            const PayloadKeys& p = kPayload[k];
            if (p.argKey != nullptr && p.arg == ArgForm::Number) {
                arg[k].push_back(keyed(p.argKey));
            } else if (p.argKey != nullptr) {
                for (unsigned a = 0; const char* n = argName(p.arg, a); ++a)
                    arg[k].push_back(named(p.argKey, n));
                arg[k].push_back(named(p.argKey, "?"));
            }
            if (p.valueKey != nullptr)
                value[k] = keyed(p.valueKey);
        }
    }
};

const Fragments&
fragments()
{
    static const Fragments f;
    return f;
}

/**
 * Format the JSONL object of one event (no trailing newline) at @p p,
 * which has room for kMaxLine bytes. @return the end.
 */
char*
formatEvent(char* p, SmId sm, const Event& e)
{
    const Fragments& f = fragments();
    const auto k = static_cast<std::size_t>(e.kind);
    p = put(p, "{\"sm\":");
    p = putNumber(p, sm);
    p = put(p, ",\"cycle\":");
    p = putNumber(p, e.cycle);
    p = put(p, f.kind[k]);
    if (e.unit != kNoUnit) {
        p = put(p, f.unit[std::min<std::size_t>(e.unit, kNumUnitClasses)]);
        if (e.cluster != kNoCluster) {
            p = put(p, ",\"cluster\":");
            p = putNumber(p, e.cluster);
        }
    }
    const PayloadKeys& keys = kPayload[k];
    const std::vector<std::string>& arg = f.arg[k];
    if (keys.argKey != nullptr && keys.arg == ArgForm::Number)
        p = putNumber(put(p, arg[0]), e.arg);
    else if (keys.argKey != nullptr)
        p = put(p, arg[std::min<std::size_t>(e.arg, arg.size() - 1)]);
    if (!f.value[k].empty())
        p = putNumber(put(p, f.value[k]), e.value);
    *p++ = '}';
    return p;
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
    char line[kMaxLine];
    return std::string(line, formatEvent(line, sm, e));
}

void
writeJsonl(std::ostream& os, const Collector& collector)
{
    BlockWriter out(os);
    out.append("{\"meta\":" + codec::encode(collector.meta).dump() + "}\n");
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        if (r->overwritten() > 0) {
            char* p = out.line();
            p = putNumber(put(p, "{\"sm\":"), s);
            p = putNumber(put(p, ",\"truncated\":"), r->overwritten());
            out.commit(put(p, "}\n"));
        }
        r->forEach([&](const Event& e) {
            char* p = formatEvent(out.line(), s, e);
            *p++ = '\n';
            out.commit(p);
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

/**
 * Read the event members of @p doc (after "sm") into @p e, as schema
 * @p version wrote them.
 */
bool
parseEvent(const Json& doc, const std::string& path,
           std::uint32_t version, Event& e, std::size_t& keys,
           std::string& error)
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
    // Before v3 an mshr-reject line stood for one cycle: v1 for one
    // refused attempt, v2 for one tally carrying its "attempts".
    const bool reject = e.kind == EventKind::MshrReject;
    if (reject && version == 1) {
        e.arg = 1;
        e.value = 1;
        return true;
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
    if (reject && version == 2) {
        e.value = 1;
        return true;
    }
    if (p.valueKey != nullptr) {
        ++keys;
        if (!decodeMember(doc, at, p.valueKey, e.value, error))
            return false;
    }
    if (reject && (e.arg == 0 || e.value == 0))
        return failAt(error, path,
                      "an mshr-reject run needs attempts and cycles");
    return true;
}

} // namespace

bool
parseJsonlMeta(const std::string& line, Meta& out, std::string& error)
{
    const std::string path = "$";
    Json doc;
    if (!Json::parse(line, doc, error) ||
        !codec::decodeMember(doc, codec::JsonPath(path), "meta", out,
                             error))
        return false;
    if (out.version < kOldestSchemaVersion || out.version > kSchemaVersion)
        return codec::failAt(
            error, path + ".meta.version",
            "unsupported trace schema version " +
                std::to_string(out.version) + " (this reader reads " +
                std::to_string(kOldestSchemaVersion) + " to " +
                std::to_string(kSchemaVersion) + ")");
    return true;
}

bool
parseJsonlRecord(const std::string& line, std::uint32_t version,
                 JsonlRecord& out, std::string& error)
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
    } else if (!parseEvent(doc, path, version, out.event, keys, error)) {
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
    BlockWriter out(os);
    out.append("{\"traceEvents\":[");
    const char* sep = "";
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        const std::string sm = std::to_string(s);
        out.append(sep + std::string("{\"name\":\"process_name\",\"ph\":"
                                      "\"M\",\"pid\":") +
                   sm + ",\"args\":{\"name\":\"SM " + sm + "\"}}");
        sep = ",\n";
        for (unsigned tid : {0u, 1u, 2u, 3u, 4u, 5u, 8u})
            out.append(sep + std::string("{\"name\":\"thread_name\",\"ph\":"
                                          "\"M\",\"pid\":") +
                       sm + ",\"tid\":" + std::to_string(tid) +
                       ",\"args\":{\"name\":\"" + chromeTidName(tid) +
                       "\"}}");
        r->forEach([&](const Event& e) {
            char* p = out.line();
            p = put(p, ",\n{\"name\":\"");
            p = put(p, eventKindName(e.kind));
            p = put(p, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            p = putNumber(p, e.cycle);
            p = putNumber(put(p, ",\"pid\":"), s);
            p = putNumber(put(p, ",\"tid\":"), chromeTid(e));
            p = put(p, ",\"args\":{\"detail\":");
            p = formatEvent(p, s, e);
            out.commit(put(p, "}}"));
        });
    }
    out.append("],\"displayTimeUnit\":\"ns\"}\n");
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
        // A reject run can reach past the epochs of later events, so an
        // SM's rows are kept, by epoch, until its last event.
        std::map<Cycle, EpochRow> rows;
        r->forEach([&](const Event& e) {
            EpochRow& row = rows[e.cycle / epoch_len];
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
              case EventKind::MshrReject:
                // Each epoch the run reaches gets its cycles there
                // times the attempts per cycle.
                for (Cycle c = e.cycle, end = e.cycle + e.value; c < end;) {
                    const Cycle upto =
                        std::min(end, (c / epoch_len + 1) * epoch_len);
                    rows[c / epoch_len].mshrRejects +=
                        (upto - c) * std::uint64_t{e.arg};
                    c = upto;
                }
                break;
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
        for (const auto& [epoch, row] : rows) {
            os << s << "," << epoch << "," << epoch * epoch_len;
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
        }
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
