/**
 * @file
 * Versioned JSON wire format for the serving subsystem: a stable
 * round-trip for ExperimentOptions, SweepSpec and SimResult.
 *
 * ExperimentOptions and SweepSpec travel as bare bodies inside protocol
 * requests (toJson/fromJson below):
 *
 *   options  {"numSms":...,"seed":...,"idleDetect":...,
 *             "breakEven":...,"wakeupDelay":...}
 *   sweep    {"benches":[...],"techniques":[...],"options":{...}?}
 *
 * A result is an enveloped document (schema version 2, golden-pinned
 * by wire_test; version-1 documents — the same shape under "wire":1 —
 * still parse):
 *
 *   result   {"wire":2,"type":"result","bench":"...",
 *             "technique":"...","options":{...},"result":{...}}
 *
 * Checkpoint snapshot documents are the other enveloped family; their
 * codec lives in serve/snapshot.hh.
 *
 * Conventions:
 *   - Member names are camelCase and never contain '_', the same rule
 *     the metrics registry enforces, so flattened dotted paths map
 *     bijectively onto the Prometheus exposition.
 *   - All numbers are formatted deterministically (integers exactly),
 *     so serialize(parse(doc)) == doc and two serializations of equal
 *     structs are byte-identical. wgreport can diff two result
 *     documents directly (every numeric leaf flattens to a dotted key).
 *   - Deserialization NEVER aborts: malformed input (truncated JSON,
 *     wrong types, oversized fields, unknown enum names, schema-version
 *     mismatch) returns false with an actionable error string.
 *
 * A deserialized result reconstructs its full GpuConfig through
 * makeConfig(technique, options) — the daemon only produces
 * technique-preset results, so (technique, options) is the complete
 * configuration key, exactly as in ExperimentRunner's cache.
 */

#pragma once

#include <string>

#include "core/experiment.hh"
// The forwarding header, so code that reaches wg::serve::Json through
// the serve headers (perfbench/workloads.cc) keeps building.
#include "serve/json.hh"

namespace wg::serve::wire {

/**
 * Wire schema version this build emits; bumped on any shape change.
 * Version 2 added the checkpoint snapshot document (snapshot.hh) and
 * the checkpoint/resume protocol verbs.
 */
inline constexpr std::uint64_t kSchemaVersion = 2;

/**
 * Oldest schema version this build still accepts. Version-1 documents
 * contain a strict subset of the version-2 shapes, so every v1 parser
 * path still works; checkEnvelope accepts the whole range.
 */
inline constexpr std::uint64_t kMinSchemaVersion = 1;

// ----- bare bodies (no envelope) -----

/**
 * ExperimentOptions -> {"numSms":...,"seed":...,...}. fromJson rejects
 * a numSms outside [1, GpuConfig::kMaxSms].
 */
Json toJson(const ExperimentOptions& opts);
bool fromJson(const Json& j, ExperimentOptions& out,
              std::string& error);

/** SweepSpec -> {"benches":[...],"techniques":[...],"options":{...}?}. */
Json toJson(const SweepSpec& spec);
bool fromJson(const Json& j, SweepSpec& out, std::string& error);

// ----- enveloped documents -----

/**
 * Serialize one (bench, technique, options) cell's result. @p opts must
 * be the options the result was computed under (they rebuild the config
 * on the way in).
 */
Json resultDoc(const std::string& bench, Technique technique,
               const ExperimentOptions& opts, const SimResult& result);

/** Parsed result cell: identity plus the reconstructed SimResult. */
struct ResultCell
{
    std::string bench;
    Technique technique = Technique::Baseline;
    ExperimentOptions options;
    SimResult result;
};

bool parseResultDoc(const Json& doc, ResultCell& out,
                    std::string& error);

// ----- helpers shared with the protocol layer -----

/**
 * Canonical dedup key of a sweep: the compact serialization of its
 * bare body. Two submissions with the same key are the same job.
 */
std::string canonicalKey(const SweepSpec& spec);

/** Resolve a technique by its paper spelling. @return false if unknown. */
bool parseTechnique(const std::string& name, Technique& out);

/**
 * Check the {"wire":N,"type":T} envelope. @return false (with error)
 * when the version or type does not match.
 */
bool checkEnvelope(const Json& doc, const std::string& type,
                   std::string& error);

} // namespace wg::serve::wire
