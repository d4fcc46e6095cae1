/**
 * @file
 * JSON codec for deterministic checkpoint snapshots (DESIGN.md §17).
 *
 * A snapshot document pins a mid-run simulation so a later process can
 * resume it bit-identically:
 *
 *   {"wire":2,"type":"snapshot",
 *    "bench":"...","technique":"...","options":{...},
 *    "overrides":{"scheduler":"","pg":"","adaptive":false,
 *                 "gateSfu":false},
 *    "snapshot":{"cycle":N,"sms":[{...SmSnapshot...},...]}}
 *
 * The identity block ((bench, technique, options) plus the wgsim-style
 * config overrides) is everything needed to rebuild the GpuConfig and
 * regenerate the per-SM programs — the workload itself is pure function
 * of (profile, seed) and is deliberately not serialized. Fast-forward
 * is NOT part of the identity: it is unobservable in results, so a
 * snapshot taken with it on may be resumed with it off and vice versa.
 *
 * Wire conventions apply: camelCase member names, deterministic number
 * formatting (serialize(parse(doc)) == doc, equal states serialize
 * byte-identically), and parsing that never aborts — malformed or
 * version-mismatched documents come back as error strings.
 *
 * Every snapshotted struct declares one field list (common/fields.hh)
 * and the codec is derived from it, so a member cannot be added
 * without reaching the wire: a member missing from its list fails the
 * build.
 */

#pragma once

#include <string>

#include "serve/wire.hh"
#include "sim/snapshot.hh"

namespace wg::serve::wire {

/**
 * The run a snapshot belongs to: the (bench, technique, options) cell
 * key plus the wgsim config overrides in effect when it was taken.
 * String overrides are policy names ("" = no override).
 */
struct SnapshotIdentity
{
    std::string bench;
    Technique technique = Technique::Baseline;
    ExperimentOptions options;
    std::string schedulerOverride; ///< schedulerPolicyName, or ""
    std::string pgOverride;        ///< pgPolicyName, or ""
    bool adaptiveOverride = false; ///< --adaptive was forced on
    bool gateSfuOverride = false;  ///< --gate-sfu was forced on
};

/**
 * Rebuild the GpuConfig a snapshot's run used: makeConfig(technique,
 * options) plus the recorded overrides, exactly as wgsim derives it.
 * @return false (with @p error) on an unknown override name or an
 * invalid resulting configuration.
 */
bool snapshotConfig(const SnapshotIdentity& id, GpuConfig& out,
                    std::string& error);

/**
 * Parse limits sized for snapshot documents: per-SM trace rings hold
 * up to 2^20 events, far past the default container cap.
 */
JsonLimits snapshotJsonLimits();

/** Serialize a checkpoint (enveloped, schema kSchemaVersion). */
Json snapshotDoc(const SnapshotIdentity& id, const GpuSnapshot& snap);

/**
 * Parse a snapshot document. Structural and range validation only —
 * semantic consistency against the rebuilt config (warp counts,
 * residency tiling, observer sections) is Sm::restore's job.
 * @return false with an actionable @p error; never aborts.
 */
bool parseSnapshotDoc(const Json& doc, SnapshotIdentity& id,
                      GpuSnapshot& snap, std::string& error);

// ----- job snapshots (daemon-side checkpoint/resume) -----

/**
 * Serialize a daemon job checkpoint: the sweep (with its effective
 * options pinned) plus one resultDoc per completed cell:
 *
 *   {"wire":2,"type":"jobSnapshot","id":"j1",
 *    "sweep":{...bare sweep body...},"cells":[{...resultDoc...},...]}
 *
 * A resumed submission replays the sweep and seeds the cells into the
 * runner's cache, so only the unfinished cells are recomputed.
 */
Json jobSnapshotDoc(const std::string& id, const SweepSpec& spec,
                    const std::vector<Json>& cellDocs);

bool parseJobSnapshotDoc(const Json& doc, std::string& id,
                         SweepSpec& spec, std::vector<ResultCell>& cells,
                         std::string& error);

// ----- the GpuSnapshot body -----
//
// Encoded from the field lists (common/fields.hh) by the codec in
// common/codec.hh; @p path prefixes error messages with the
// dotted location of the offending member.

Json gpuSnapshotToJson(const GpuSnapshot& s);
bool gpuSnapshotFromJson(const Json& j, const std::string& path,
                         GpuSnapshot& out, std::string& error);

} // namespace wg::serve::wire
