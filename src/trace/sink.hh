/**
 * @file
 * Trace sinks: serialise a Collector's per-SM event rings.
 *
 * Three formats:
 *   - Chrome  — a `chrome://tracing` / Perfetto-loadable JSON document
 *               (pid = SM, tid = unit pipeline, instant events)
 *   - JSONL   — one flat JSON object per line; the lossless machine
 *               format the offline checker (wgtrace) replays. Its
 *               reader sits here beside the writer: the meta line is
 *               Meta's field list through the codec, and both sides
 *               take each kind's payload keys from one table
 *   - CSV     — per-epoch per-SM activity timeseries for spreadsheets
 *               and plotting scripts
 *
 * All sinks drain recorders in ascending SM order and events in record
 * order, so output depends only on the simulated work — never on the
 * thread pool's scheduling. A wrapped ring is flagged (`truncated`)
 * rather than silently shortened.
 *
 * The JSONL and chrome writers render fixed-size chunks of events on a
 * ThreadPool and write them in order; the JSONL reader parses blocks
 * of lines the same way. A null pool does the same work inline, with
 * the same bytes and records.
 */

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "common/threadpool.hh"
#include "trace/recorder.hh"

namespace wg::trace {

/** Serialisation formats. */
enum class SinkFormat : std::uint8_t { Chrome, Jsonl, Csv };

/** Printable format name (the --trace-format spelling). */
const char* sinkFormatName(SinkFormat format);

/** Parse a --trace-format value. @return false when unknown. */
bool parseSinkFormat(const std::string& name, SinkFormat& out);

/**
 * Serialise @p collector to @p os in the given format, rendering on
 * @p pool (inline when null; the CSV is always rendered inline).
 */
void writeTrace(std::ostream& os, const Collector& collector,
                SinkFormat format, ThreadPool* pool = &ThreadPool::global());

/** Chrome about://tracing JSON document. */
void writeChromeTrace(std::ostream& os, const Collector& collector,
                      ThreadPool* pool = &ThreadPool::global());

/**
 * JSONL: meta line, then per SM its `truncated` marker (when its ring
 * wrapped) and one event object per line.
 */
void writeJsonl(std::ostream& os, const Collector& collector,
                ThreadPool* pool = &ThreadPool::global());

/** Per-epoch CSV timeseries (epoch length from the meta; 1000 if 0). */
void writeEpochCsv(std::ostream& os, const Collector& collector);

/** Serialise to @p path; fatal() on I/O failure. */
void writeTraceFile(const std::string& path, const Collector& collector,
                    SinkFormat format,
                    ThreadPool* pool = &ThreadPool::global());

/** Serialise one event as the JSONL object (no trailing newline). */
std::string eventToJson(SmId sm, const Event& event);

/** One JSONL body line: an event, or a ring-wrap marker. */
struct JsonlRecord
{
    SmId sm = 0;
    bool marker = false;         ///< a `truncated` line, not an event
    std::uint64_t truncated = 0; ///< marker: events the ring overwrote
    Event event;                 ///< !marker: the event
};

/**
 * Read the JSONL meta line (`{"meta":{...}}`); every Meta key is
 * required and range-checked, and the version must be one this reader
 * reads (kOldestSchemaVersion to kSchemaVersion).
 * @return false (with @p error set) when @p line is not a meta line.
 */
bool parseJsonlMeta(const std::string& line, Meta& out,
                    std::string& error);

/**
 * Read one JSONL body line of a schema-@p version trace (the meta
 * line's version). It must carry exactly the keys that version's
 * writer emits for it, each within its member's width. An
 * `mshr-reject` reads as a run (arg = attempts per cycle, value =
 * cycles): a v1 line has no payload and is 1 attempt for 1 cycle, a
 * v2 line its `attempts` for 1 cycle, a v3 line needs `attempts` and
 * `cycles`, both nonzero.
 * @return false (with @p error set) on a malformed line.
 */
bool parseJsonlRecord(const std::string& line, std::uint32_t version,
                      JsonlRecord& out, std::string& error);

/** One non-blank JSONL body line, as readJsonl hands it over. */
struct JsonlLine
{
    std::uint64_t number = 0; ///< 1-based line number in the file
    bool ok = false;          ///< false: a malformed line
    JsonlRecord record;       ///< ok: the record
};

/**
 * Read the body of a schema-@p version JSONL trace from @p in, which
 * is positioned just after the meta line (line 1). This thread reads
 * blocks of lines, @p pool parses them with parseJsonlRecord (inline
 * when null), and @p fn gets every non-blank line on this thread, in
 * file order. A last line without a newline is read too.
 */
void readJsonl(std::istream& in, std::uint32_t version, ThreadPool* pool,
               const std::function<void(const JsonlLine&)>& fn);

} // namespace wg::trace

