/**
 * @file
 * Shared pieces of the end-to-end benchmark: seeded inputs, statistics,
 * result digests and correctness checks, host fingerprint, the span log
 * of the traced run, and the three workload entry points.
 *
 * Everything is measured from outside the simulator: the benchmark
 * times calls into each module's public functions and reads the public
 * result structs. It never reads the simulator's own wall-clock timers.
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "core/presets.hh"
#include "sim/result.hh"

namespace perfbench {

// ----- seeded inputs -----

/** The experiment options every workload derives from its seed. */
wg::ExperimentOptions benchOptions(std::uint64_t seed);

/** How one served submission relates to the ones before it. */
enum class SubmitKind : std::uint8_t {
    New,   ///< a cell no earlier submission asked for
    Dup,   ///< the exact spec of an earlier New (whole-job dedup)
    Alias, ///< an earlier default-seed cell with its options omitted,
           ///< so a new job hits the runner's result cache
};

/** One planned served_jobs submission (a single-cell job). */
struct Submission
{
    SubmitKind kind = SubmitKind::New;
    std::string bench;
    wg::Technique technique = wg::Technique::Baseline;
    std::uint64_t cellSeed = 0; ///< options seed of the cell
    std::size_t repeats = 0;    ///< index of the repeated New, if any
};

/**
 * The served_jobs submission sequence for @p seed: New cells walk
 * seeded permutations of the (bench x technique) grid, first at the
 * run seed and then at seed+1, seed+2, ...; three in ten submissions
 * repeat an earlier New (two as Dup, one as Alias).
 */
std::vector<Submission> planServedJobs(std::uint64_t seed, std::size_t n);

// ----- statistics -----

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> xs);

/** Nearest-rank percentile, @p pct in (0, 100]. */
double percentile(std::vector<double> xs, double pct);

/**
 * The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
 * it among @p n samples; 0 when even the median has fewer than ten.
 */
double tailPercentile(std::size_t n);

// ----- paper reference (EXPERIMENTS.md, Fig. 9 suite averages) -----

/** Percent savings per technique, ConvPG..WarpedGates order. */
struct Fig9Averages
{
    std::array<double, 5> intPct{};
    std::array<double, 5> fpPct{};
};

/** The paper's Fig. 9a/9b suite averages. */
const Fig9Averages& paperFig9();

/** The techniques of Fig. 9, in Fig9Averages order. */
const std::array<wg::Technique, 5>& fig9Techniques();

/** Mean absolute error in percentage points over the ten averages. */
double paperErrPp(const Fig9Averages& measured);

// ----- digests and correctness -----

/** FNV-1a 64 over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/**
 * Digest of one cell's result: FNV-1a of its wire result document, so
 * two results digest equal exactly when they serialize byte for byte.
 */
std::string cellDigest(const std::string& bench, wg::Technique t,
                       const wg::ExperimentOptions& opts,
                       const wg::SimResult& result);

/**
 * Per-cell soundness: the run drained before maxCycles, and the energy
 * identity staticE + staticSaved == staticNoPg holds for every unit
 * class within rounding. @return "" when sound, else the reason.
 */
std::string checkCell(const wg::SimResult& result);

/** Key of a cell in the pinned-digest table. */
std::string pinKey(const std::string& bench, wg::Technique t);

/**
 * Load "bench technique digest" lines ('#' starts a comment). The table
 * pins the cells of benchOptions(kPinnedSeed). Empty when unreadable.
 */
std::map<std::string, std::string> loadPinned(const std::string& path);

inline constexpr std::uint64_t kPinnedSeed = 1;

/**
 * An output buffer that keeps only a fixed window in memory while
 * counting and hashing every byte written through it: rendering a
 * traced run's jsonl (hundreds of MB) costs the formatting, not the
 * memory to hold it.
 */
class DigestBuf : public std::streambuf
{
  public:
    DigestBuf();
    std::uint64_t bytes() const { return bytes_; }
    /** Digest of everything written so far (flushes the window). */
    std::uint64_t digest();

  protected:
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    void drain();

    std::vector<char> window_;
    std::uint64_t bytes_ = 0;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ----- host -----

/** What a result record must carry to be compared only like-for-like. */
struct HostInfo
{
    unsigned nproc = 0;
    unsigned poolThreads = 0;
    std::string buildType;
    bool optimized = false;
    std::string compiler;
    std::string cpu;
};

HostInfo hostInfo();

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** User + system CPU seconds this process has used. */
double cpuSeconds();

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----- spans (the traced run) -----

/** One timed call into a layer. */
struct SpanRecord
{
    std::string name;  ///< "<layer>.<call>"
    std::string item;  ///< cell or job id ("" when none)
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t id = 0;     ///< 1-based
    std::uint32_t parent = 0; ///< 0 = root
};

/**
 * In-memory span log, shared by every thread of the run. Disabled, it
 * records nothing and a Span costs one branch.
 */
class SpanLog
{
  public:
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    /** Toggle between measured phases only (no span may be open). */
    void setEnabled(bool on) { enabled_.store(on); }

    std::uint32_t begin(std::string name, std::string item,
                        std::uint32_t parent);
    void end(std::uint32_t id);

    std::vector<SpanRecord> records() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span. Its parent is the innermost span open on this thread, or
 * an explicit id for work handed to another thread.
 */
class Span
{
  public:
    Span(SpanLog& log, std::string name, std::string item = {});
    Span(SpanLog& log, std::string name, std::string item,
         std::uint32_t parent);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog& log_;
    std::uint32_t id_ = 0;
    std::uint32_t saved_ = 0;
};

/**
 * Self time of every span, in ns, index-aligned with @p spans: its
 * duration minus the part of it that the union of its children covers
 * (children may overlap one another when they ran on several threads).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord>& spans);

/** Self time summed per layer (the name up to its first '.'), in ms. */
std::map<std::string, double>
layerSelfMs(const std::vector<SpanRecord>& spans);

/** The layers self times are reported for, in report order. */
const std::vector<std::string>& spanLayers();

// ----- workloads -----

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** What one benchmark invocation asks for. */
struct RunOptions
{
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string pinnedPath; ///< pinned-digest table
    std::string pinOut;     ///< suite_sweep: write its digests here
    double poolCreateS = 0.0; ///< global pool construction, once
};

/** What a workload reports. */
struct Outcome
{
    MetricMap e2e;    ///< end-to-end metrics (untraced run)
    MetricMap layers; ///< per-layer metrics (traced run)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure reasons
    std::vector<SpanRecord> spans;     ///< the traced run's spans
    /** sim_instr_per_s of every measured unit (pass, round, phase). */
    std::vector<double> unitRates;

    /** Count one attempt; @p why non-empty marks it failed. */
    void check(const std::string& what, const std::string& why);
};

/** Every per-layer metric with its unit, zero-valued. */
MetricMap zeroLayers();

Outcome runSuiteSweep(const RunOptions& opts);
Outcome runTracedCheckpoint(const RunOptions& opts);
Outcome runServedJobs(const RunOptions& opts);

} // namespace perfbench
