/**
 * @file
 * Live-telemetry frame builders: the line-JSON frames a subscribed
 * connection receives while a job runs.
 *
 * Frame kinds (all share the versioned envelope
 * `{"wire":1,"type":"frame","frame":...,"id":...}`):
 *
 *   - meta     — opens one cell's epoch series; carries the cell index,
 *                bench/technique, and the exact wgmetrics meta line.
 *   - epoch    — one SM-epoch sample; `data` is the exact jsonl line
 *                the offline `wgsim --metrics` export writes.
 *   - final    — closes one cell; `data` is the exact final-registry
 *                jsonl line.
 *   - progress — cells done/total plus a throughput-derived ETA.
 *   - result   — terminal; job state, error (failed only), and
 *                `droppedFrames`, always 0: a subscription is a cursor
 *                over the job's cells and cannot drop a frame. Wire
 *                readers still require the member.
 *
 * The determinism contract: concatenating the `data` members of one
 * cell's meta/epoch/final frames reproduces the offline
 * `wgsim --metrics` jsonl export byte-for-byte, because both sides are
 * built from the same metrics::jsonl*Line() builders.
 *
 * Thread safety: every builder here is a pure function of its
 * arguments — no shared mutable state, no capabilities to annotate
 * (see common/thread_annotations.hh). JobManager::nextFrame calls them
 * on the reader's thread outside the manager's lock precisely because
 * of this; keep new builders stateless or they move under its mu_.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "metrics/sampler.hh"

namespace wg::serve::stream {

/** Opens cell @p cell's series; @p series may be null (bare meta). */
std::string metaFrame(const std::string& id, std::size_t cell,
                      const std::string& bench,
                      const std::string& technique,
                      const metrics::EpochSeries* series);

/** One epoch sample of cell @p cell. */
std::string epochFrame(const std::string& id, std::size_t cell,
                       SmId sm, const metrics::EpochSample& s);

/** Closes cell @p cell with its final registry. */
std::string finalFrame(const std::string& id, std::size_t cell,
                       const StatSet& registry);

/** Cells done/total; @p etaMs < 0 means unknown (omitted). */
std::string progressFrame(const std::string& id,
                          std::size_t completedCells,
                          std::size_t totalCells, double etaMs);

/** Terminal frame; @p error is embedded only when non-empty. */
std::string resultFrame(const std::string& id, const char* state,
                        const std::string& error);

/**
 * The replayable frames of one completed cell, in stream order:
 * meta, every epoch sample SM-major, final.
 */
std::vector<std::string> cellFrames(const std::string& id,
                                    std::size_t cell,
                                    const std::string& bench,
                                    const std::string& technique,
                                    const metrics::EpochSeries* series,
                                    const StatSet& registry);

} // namespace wg::serve::stream
