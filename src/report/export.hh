/**
 * @file
 * Machine-readable result export: CSV rows and JSON documents for
 * downstream analysis (plotting scripts, regression tracking). Every
 * number is read from the metrics registry (metrics::toStatSet), the
 * one source of result values and names that `--metrics`, prom,
 * wgreport and serve read too.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/result.hh"

namespace wg {

/**
 * Stable CSV schema for simulation results (the figure-data format).
 * Columns: label, scheduler, pg_policy, adaptive, num_sms, cycles, ipc,
 * avg_active_warps, int_busy_frac, fp_busy_frac,
 * int_static_savings, fp_static_savings,
 * int_wakeups, fp_wakeups, int_critical, fp_critical,
 * int_gating_events, fp_gating_events, mem_misses.
 */
std::string csvHeader();

/**
 * One CSV row for @p result, labelled @p label (e.g. the benchmark).
 * Integral values print exactly, others with operator<<'s 6 significant
 * digits.
 */
std::string toCsvRow(const std::string& label, const SimResult& result);

/**
 * JSON document for @p result: its label, scheduler and gating policy
 * names, every registry entry under "metrics" (lossless: each number
 * parses back to the registry's double), and the INT/FP idle-period
 * histograms under "idleHistograms".
 */
std::string toJson(const std::string& label, const SimResult& result);

/**
 * The human-readable per-benchmark summary (the INT/FP gating table
 * plus the cycles/IPC line).
 */
void printSummary(std::ostream& os, const std::string& label,
                  const SimResult& result);

/** One result of a run and the label it is reported under. */
struct LabelledResult
{
    std::string label;
    const SimResult* result;
};

/**
 * Report a run's results in run order: each one's summary to @p os
 * unless @p quiet, the CSV header and one row per result to
 * @p csvPath, and one JSON document {"results": [...]} holding every
 * result's toJson document to @p jsonPath. An empty path writes no
 * file. Shared by wgsim and wgctl, so a served result reports
 * byte-identically to an offline run.
 */
void reportResults(std::ostream& os,
                   const std::vector<LabelledResult>& results, bool quiet,
                   const std::string& csvPath,
                   const std::string& jsonPath);

/** Write @p content to @p path; fatal() on I/O failure. */
void writeFile(const std::string& path, const std::string& content);

/** Read all of @p path into @p out; @return false when it cannot. */
bool readFile(const std::string& path, std::string& out);

} // namespace wg
