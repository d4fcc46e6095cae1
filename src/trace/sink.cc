#include "sink.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
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

/** Events per rendered chunk: about 600 KB of JSONL text. */
constexpr std::size_t kChunkEvents = 8 * 1024;

/**
 * Room for one chunk's text: each event's line at its longest, plus
 * its SM's head lines (a chrome SM's eight lane names, or a JSONL
 * `truncated` marker). Only the pages written are ever touched.
 */
constexpr std::size_t kChunkBytes = (kChunkEvents + 8) * kMaxLine;

/** Bytes per JSONL read block: whole lines, more if one is longer. */
constexpr std::size_t kReadBlock = 1024 * 1024;

/**
 * Work fanned out on a pool and taken back in submission order: push()
 * queues a task (runs it at once when the pool is null), pop() waits
 * for the oldest. full() caps the tasks in flight at two per worker,
 * so the results held at once stay bounded whatever the input size.
 * Every wait goes through ThreadPool::wait, so a caller that is itself
 * a pool task runs its own queued children and cannot deadlock.
 */
template <typename T>
class OrderedFanOut
{
  public:
    explicit OrderedFanOut(ThreadPool* pool)
        : pool_(pool), window_(pool ? 2 * std::size_t{pool->size()} : 1)
    {
    }

    /**
     * Settle what is still in flight: its tasks hold references. This
     * runs with tasks pending only while an exception leaves the
     * caller; it is the one that propagates, and a pending task's own
     * failure is dropped.
     */
    ~OrderedFanOut()
    {
        for (std::future<T>& f : pending_) {
            try {
                wait(f);
            } catch (...) {
            }
        }
    }

    OrderedFanOut(const OrderedFanOut&) = delete;
    OrderedFanOut& operator=(const OrderedFanOut&) = delete;

    bool full() const { return pending_.size() >= window_; }
    bool empty() const { return pending_.empty(); }

    template <typename F>
    void
    push(F&& fn)
    {
        if (pool_ != nullptr) {
            pending_.push_back(pool_->submit(std::forward<F>(fn)));
            return;
        }
        std::promise<T> done;
        done.set_value(fn());
        pending_.push_back(done.get_future());
    }

    /** The oldest task's result. */
    T
    pop()
    {
        T out = wait(pending_.front());
        pending_.pop_front();
        return out;
    }

  private:
    T wait(std::future<T>& f) { return pool_ ? pool_->wait(f) : f.get(); }

    ThreadPool* pool_;
    std::size_t window_;
    std::deque<std::future<T>> pending_;
};

/**
 * Up to kChunkEvents contiguous events of one SM. Each SM's first
 * chunk carries its ring-wrap count; an SM that kept no events still
 * gets one (empty) chunk, so a writer can emit its head lines.
 */
struct Chunk
{
    SmId sm = 0;
    std::span<const Event> events;
    bool first = false;         ///< the SM's first chunk
    std::uint64_t truncated = 0; ///< first chunk: events the ring lost
};

/** The chunks of every recorded SM, in SM then event order. */
std::vector<Chunk>
chunksOf(const Collector& collector)
{
    std::vector<Chunk> chunks;
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        const std::size_t head = chunks.size();
        for (std::span<const Event> run : r->spans())
            for (std::size_t i = 0; i < run.size(); i += kChunkEvents)
                chunks.push_back(
                    {s, run.subspan(i, std::min(kChunkEvents,
                                                run.size() - i))});
        if (chunks.size() == head)
            chunks.push_back({s, {}});
        chunks[head].first = true;
        chunks[head].truncated = r->overwritten();
    }
    return chunks;
}

/**
 * Write @p head, then every chunk of @p collector, in order, then
 * @p tail. @p render(chunk, p) formats a chunk at p, which has room
 * for kChunkBytes, and returns the end; it runs on @p pool. Each
 * buffer is reused once its text is written, so at most one per chunk
 * in flight is ever allocated.
 */
template <typename Render>
void
writeChunked(std::ostream& os, const Collector& collector,
             ThreadPool* pool, std::string_view head, Render render,
             std::string_view tail)
{
    using Buffer = std::unique_ptr<char[]>;
    struct Text
    {
        Buffer buffer;
        std::size_t size = 0;
    };
    os.write(head.data(), static_cast<std::streamsize>(head.size()));
    OrderedFanOut<Text> fan(pool);
    std::vector<Buffer> spare;
    auto writeOldest = [&] {
        Text text = fan.pop();
        os.write(text.buffer.get(), static_cast<std::streamsize>(text.size));
        spare.push_back(std::move(text.buffer));
    };
    for (const Chunk& chunk : chunksOf(collector)) {
        if (fan.full())
            writeOldest();
        Buffer buffer;
        if (spare.empty()) {
            buffer = std::make_unique_for_overwrite<char[]>(kChunkBytes);
        } else {
            buffer = std::move(spare.back());
            spare.pop_back();
        }
        fan.push([&render, chunk, buffer = std::move(buffer)]() mutable {
            const auto size =
                static_cast<std::size_t>(render(chunk, buffer.get()) -
                                         buffer.get());
            return Text{std::move(buffer), size};
        });
    }
    while (!fan.empty())
        writeOldest();
    os.write(tail.data(), static_cast<std::streamsize>(tail.size()));
}

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
writeJsonl(std::ostream& os, const Collector& collector, ThreadPool* pool)
{
    const std::string meta =
        "{\"meta\":" + codec::encode(collector.meta).dump() + "}\n";
    auto render = [](const Chunk& chunk, char* p) {
        if (chunk.truncated > 0) {
            p = putNumber(put(p, "{\"sm\":"), chunk.sm);
            p = putNumber(put(p, ",\"truncated\":"), chunk.truncated);
            p = put(p, "}\n");
        }
        for (const Event& e : chunk.events) {
            p = formatEvent(p, chunk.sm, e);
            *p++ = '\n';
        }
        return p;
    };
    writeChunked(os, collector, pool, meta, render, "");
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

namespace {

/** The non-blank lines of one read block, numbered from its start. */
struct ParsedBlock
{
    std::vector<JsonlLine> lines; ///< number: 0-based within the block
    std::uint64_t count = 0;      ///< lines in the block, blank ones too
};

ParsedBlock
parseBlock(const std::string& block, std::uint32_t version)
{
    ParsedBlock out;
    std::string line, error;
    for (std::size_t at = 0; at < block.size(); ++out.count) {
        std::size_t end = block.find('\n', at);
        if (end == std::string::npos)
            end = block.size();
        if (end > at) {
            line.assign(block, at, end - at);
            JsonlLine& l = out.lines.emplace_back();
            l.number = out.count;
            l.ok = parseJsonlRecord(line, version, l.record, error);
        }
        at = end + 1;
    }
    return out;
}

} // namespace

void
readJsonl(std::istream& in, std::uint32_t version, ThreadPool* pool,
          const std::function<void(const JsonlLine&)>& fn)
{
    OrderedFanOut<ParsedBlock> fan(pool);
    std::uint64_t next_line = 2; // line 1 is the meta line
    auto deliverOldest = [&] {
        ParsedBlock block = fan.pop();
        for (JsonlLine& l : block.lines) {
            l.number += next_line;
            fn(l);
        }
        next_line += block.count;
    };
    std::string carry; // a line cut by the end of the last read
    for (bool eof = false; !eof;) {
        std::string block = std::move(carry);
        carry.clear();
        const std::size_t kept = block.size();
        block.resize(kept + kReadBlock);
        in.read(block.data() + kept,
                static_cast<std::streamsize>(kReadBlock));
        block.resize(kept + static_cast<std::size_t>(in.gcount()));
        eof = !in;
        if (!eof) {
            // Hand over whole lines only; one longer than a block
            // reads on.
            const std::size_t cut = block.rfind('\n');
            if (cut == std::string::npos) {
                carry = std::move(block);
                continue;
            }
            carry.assign(block, cut + 1);
            block.resize(cut + 1);
        }
        if (block.empty())
            continue;
        if (fan.full())
            deliverOldest();
        fan.push([version, block = std::move(block)] {
            return parseBlock(block, version);
        });
    }
    while (!fan.empty())
        deliverOldest();
}

void
writeChromeTrace(std::ostream& os, const Collector& collector,
                 ThreadPool* pool)
{
    // Every SM's head names its process and thread lanes; only the
    // document's first entry has no separator before it.
    SmId first_sm = 0;
    while (first_sm < collector.numSms() && !collector.recorder(first_sm))
        ++first_sm;
    auto render = [first_sm](const Chunk& chunk, char* p) {
        if (chunk.first) {
            const std::string sm = std::to_string(chunk.sm);
            if (chunk.sm != first_sm)
                p = put(p, ",\n");
            p = put(p, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                           sm + ",\"args\":{\"name\":\"SM " + sm + "\"}}");
            for (unsigned tid : {0u, 1u, 2u, 3u, 4u, 5u, 8u})
                p = put(p, ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                           "\"pid\":" +
                               sm + ",\"tid\":" + std::to_string(tid) +
                               ",\"args\":{\"name\":\"" +
                               chromeTidName(tid) + "\"}}");
        }
        for (const Event& e : chunk.events) {
            p = put(p, ",\n{\"name\":\"");
            p = put(p, eventKindName(e.kind));
            p = put(p, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            p = putNumber(p, e.cycle);
            p = putNumber(put(p, ",\"pid\":"), chunk.sm);
            p = putNumber(put(p, ",\"tid\":"), chromeTid(e));
            p = put(p, ",\"args\":{\"detail\":");
            p = formatEvent(p, chunk.sm, e);
            p = put(p, "}}");
        }
        return p;
    };
    writeChunked(os, collector, pool, "{\"traceEvents\":[", render,
                 "],\"displayTimeUnit\":\"ns\"}\n");
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
writeTrace(std::ostream& os, const Collector& collector, SinkFormat format,
           ThreadPool* pool)
{
    switch (format) {
      case SinkFormat::Chrome: writeChromeTrace(os, collector, pool); return;
      case SinkFormat::Jsonl: writeJsonl(os, collector, pool); return;
      case SinkFormat::Csv: writeEpochCsv(os, collector); return;
    }
    panic("writeTrace: unknown sink format");
}

void
writeTraceFile(const std::string& path, const Collector& collector,
               SinkFormat format, ThreadPool* pool)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '", path, "' for writing");
    writeTrace(out, collector, format, pool);
    out.flush();
    if (!out)
        fatal("short write to trace file '", path, "'");
}

} // namespace wg::trace
