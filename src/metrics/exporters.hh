/**
 * @file
 * Metrics serialisation: the final StatSet registry and the per-SM
 * epoch time-series, in three formats.
 *
 *   - prom  — OpenMetrics/Prometheus text exposition of the final
 *             registry only (`wg_` prefix, '.' -> '_', `# EOF`).
 *   - jsonl — one meta line, one flat JSON object per epoch sample,
 *             then a `{"type":"final","stats":{...}}` registry line.
 *             The lossless machine format wgreport consumes.
 *   - csv   — `# wgmetrics` header, the epoch series as rows, then a
 *             `# final` section of name,value registry lines.
 *
 * All exporters drain samplers in ascending SM order and samples in
 * epoch order, and format numbers with formatMetricValue
 * (common/json.hh: integers exactly, doubles with round-trip
 * precision), so output depends only on the
 * simulated work — a pooled run's file is byte-identical to the serial
 * run's.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "common/histogram.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "metrics/sampler.hh"

namespace wg::metrics {

/** Serialisation formats (the --metrics-format spellings). */
enum class MetricsFormat : std::uint8_t { Csv, Jsonl, Prom };

/** Printable format name. */
const char* metricsFormatName(MetricsFormat format);

/** Parse a --metrics-format value. @return false when unknown. */
bool parseMetricsFormat(const std::string& name, MetricsFormat& out);

/**
 * Serialise @p set (and, for csv/jsonl, @p collector's epoch series)
 * to @p os. @p collector may be null: csv/jsonl then carry the final
 * registry only.
 */
void writeMetrics(std::ostream& os, const Collector* collector,
                  const StatSet& set, MetricsFormat format);

/** OpenMetrics text exposition of the registry (no series). */
void writeProm(std::ostream& os, const StatSet& set);

/**
 * The gauge section of the exposition (`# HELP`/`# TYPE`/sample per
 * metric) without the `# EOF` terminator, so callers can append
 * histogram families before closing the stream themselves.
 */
void writePromGauges(std::ostream& os, const StatSet& set);

/**
 * One OpenMetrics histogram family: cumulative `_bucket{le="..."}`
 * samples (including the implicit `+Inf`), then `_sum` and `_count`.
 * @p name is a dotted registry name, mapped through promName().
 */
void writePromHistogram(std::ostream& os, const std::string& name,
                        const std::string& help,
                        const LatencyHistogram& hist);

/**
 * Help text for a registry metric, looked up by longest catalogued
 * dotted-prefix. Uncatalogued names get a generic fallback (see
 * metricHelpKnown, which the schema-drift guard uses to force new
 * namespaces into the catalogue).
 */
std::string metricHelp(const std::string& name);

/** True when metricHelp() found a catalogued (non-generic) entry. */
bool metricHelpKnown(const std::string& name);

/** JSONL: meta, epoch samples, final registry. */
void writeMetricsJsonl(std::ostream& os, const Collector* collector,
                       const StatSet& set);

/**
 * The individual wgmetrics-jsonl lines (no trailing newline). These
 * are the single source of the format's bytes: writeMetricsJsonl
 * concatenates them, and the serve layer embeds them verbatim in
 * stream frames — which is what makes a watched job's stream
 * byte-identical to the offline export by construction.
 */
std::string jsonlMetaLine(bool have_series, Cycle epoch_length,
                          std::uint32_t num_sms);
std::string jsonlEpochLine(SmId sm, const EpochSample& s);
std::string jsonlFinalLine(const StatSet& set);

/** CSV: epoch-series rows plus a `# final` registry section. */
void writeMetricsCsv(std::ostream& os, const Collector* collector,
                     const StatSet& set);

/** Serialise to @p path; fatal() on I/O failure. */
void writeMetricsFile(const std::string& path,
                      const Collector* collector, const StatSet& set,
                      MetricsFormat format);

/** Registry name -> Prometheus sample name (`wg_` + '.' -> '_'). */
std::string promName(const std::string& name);

} // namespace wg::metrics

