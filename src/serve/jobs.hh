/**
 * @file
 * Job manager: the daemon's admission queue in front of the shared
 * ExperimentRunner.
 *
 * A job is one SweepSpec (benches x techniques x options). Jobs enter
 * a bounded queue with a priority in [0, numPriorities); a single
 * dispatcher thread starts the highest-priority, oldest job whenever a
 * slot is free, so start order is exactly FIFO-within-priority. Each
 * started job runs as one pool task that walks its cells in bench-major
 * order through ExperimentRunner::runMetered — the single-flight cache
 * dedupes identical cells across concurrent jobs, and whole-job
 * duplicates are folded at admission by the canonical-spec key before
 * they ever reach the runner.
 *
 * Life cycle:   Queued -> Running -> Done | Failed
 *                  \---------\--> Cancelled
 * A queued job cancels immediately; a running job stops at the next
 * cell boundary (cells already computed stay cached).
 *
 * Each completed cell keeps its result and its epoch series (the
 * runner's cached copy, shared). A subscription is a cursor over those
 * cells: the reader renders a cell's frames when it reaches it, so
 * nothing is rendered, logged or queued ahead of a reader and the
 * publisher never waits on one.
 *
 * drain() rejects new submissions and returns once every queued and
 * running job has finished — the daemon's SIGTERM path.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/thread_annotations.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "serve/eventlog.hh"
#include "serve/wire.hh"

namespace wg::serve {

/** Job life-cycle states. */
enum class JobState : std::uint8_t {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
};

/** Printable state name (protocol spelling). */
const char* jobStateName(JobState state);

/** Manager tunables. */
struct JobConfig
{
    std::size_t queueCapacity = 256; ///< max *queued* jobs (admission)
    unsigned maxConcurrentJobs = 2;  ///< jobs dispatched at once
    unsigned numPriorities = 4;      ///< valid priorities: [0, n)

    /** Structured event sink; null disables event logging. */
    EventLog* events = nullptr;
};

/** One completed (bench, technique) cell of a job. */
struct JobCell
{
    std::string bench;
    Technique technique = Technique::Baseline;
    std::shared_ptr<const SimResult> result;
    /** Epoch series; null when the cell was cached unmetered. */
    std::shared_ptr<const metrics::EpochSeries> series;
};

/** Snapshot of one job's externally visible state. */
struct JobStatus
{
    std::string id;
    JobState state = JobState::Queued;
    unsigned priority = 0;
    std::size_t totalCells = 0;
    std::size_t completedCells = 0;
    bool deduped = false;       ///< id was returned for a duplicate too
    std::uint64_t submitSeq = 0; ///< admission order (1-based)
    std::uint64_t startSeq = 0; ///< dispatch order (0 = not started)
    std::string error;          ///< set when state == Failed
};

struct Subscription;

/** Copies of the manager's latency histograms (for /metrics). */
struct LatencySnapshot
{
    LatencyHistogram admissionWait; ///< submit -> dispatch
    LatencyHistogram runDuration;   ///< dispatch -> terminal
    LatencyHistogram endToEnd;      ///< submit -> terminal
};

class JobManager
{
  public:
    /**
     * @param runner shared runner (cache + validation); must outlive
     *        the manager.
     */
    JobManager(ExperimentRunner& runner, JobConfig config = {});

    /** Cancels queued jobs, waits for running ones, stops dispatch. */
    ~JobManager();

    JobManager(const JobManager&) = delete;
    JobManager& operator=(const JobManager&) = delete;

    /** submit() outcome. */
    struct SubmitOutcome
    {
        bool ok = false;
        std::string id;       ///< valid when ok
        bool deduped = false; ///< an equivalent job already existed
        std::string error;    ///< valid when !ok
    };

    /**
     * Admit a sweep. Validates the spec (benchmark names, technique
     * config) and rejects — never aborts — on invalid input, a full
     * queue, or a draining manager. A spec whose canonical key matches
     * a live (non-cancelled, non-failed) job returns that job's id
     * with deduped=true; if the duplicate asks for a higher priority
     * and the job is still queued, the job is promoted.
     */
    SubmitOutcome submit(const SweepSpec& spec, unsigned priority);

    /** @return the job's status, or nullopt for an unknown id. */
    std::optional<JobStatus> status(const std::string& id) const;

    /** All jobs, in submission order. */
    std::vector<JobStatus> listJobs() const;

    /**
     * Fetch a finished job's per-cell results. @p optsUsed receives
     * the effective options the cells were computed under (the spec's,
     * or the runner's defaults) — what a result document must embed.
     * @return false with @p error when unknown or not Done.
     */
    bool results(const std::string& id, std::vector<JobCell>& out,
                 ExperimentOptions& optsUsed, std::string& error) const;

    /**
     * Capture a job checkpoint in any state: the sweep spec with its
     * effective options pinned explicitly (so a resume on a daemon
     * with different defaults still addresses the same cells) plus
     * every cell completed so far. Queued jobs checkpoint with zero
     * cells; running jobs with whatever the last cell boundary
     * published. @return false only for an unknown id.
     */
    bool checkpoint(const std::string& id, SweepSpec& spec,
                    std::vector<JobCell>& cells,
                    std::string& error) const;

    /**
     * Seed the runner's result cache with already-computed cells (the
     * resume half of checkpoint/resume). Cells naming an unknown
     * benchmark and cells whose key is already cached are skipped.
     * @return the number of cells actually seeded.
     */
    std::size_t seedCells(const std::vector<wire::ResultCell>& cells);

    /**
     * Cancel a job. Queued: immediate. Running: takes effect at the
     * next cell boundary. @return false when unknown or already
     * finished.
     */
    bool cancel(const std::string& id, std::string& error);

    /**
     * Reject new submissions and block until every queued and running
     * job has finished (the graceful SIGTERM path). Idempotent.
     */
    void drain();

    /** True once drain() has begun (or the destructor has run). */
    bool draining() const;

    /**
     * Publish queue/job/cache gauges into @p set under `serve.` using
     * the registry's dotted-no-underscore naming, so the OpenMetrics
     * mapping stays bijective.
     */
    void publishStats(StatSet& set) const;

    /**
     * Open a frame stream on @p id: a cursor at the job's first cell.
     * Every reader, prompt or late, gets each cell's meta/epoch/final
     * frames in cell order, a progress frame whenever it catches up
     * with the completed cells (including at subscribe time), and the
     * result frame once the job is terminal and fully delivered.
     * @return null with @p error set for an unknown id.
     */
    std::shared_ptr<Subscription> subscribe(const std::string& id,
                                            std::string& error);

    /** Close a subscription (idempotent; null is a no-op). */
    void unsubscribe(const std::shared_ptr<Subscription>& sub);

    /**
     * Deliver the next frame, rendering the next completed cell when
     * the current one is used up. @return false when the cursor has
     * caught up with the job and has nothing to deliver yet.
     */
    bool nextFrame(Subscription& sub, std::string& out);

    /** True once the terminal result frame has been delivered. */
    bool subscriptionDone(const Subscription& sub) const;

    /** Latency histograms for the OpenMetrics exposition. */
    LatencySnapshot latencySnapshot() const;

    /**
     * Test hook: hold back the dispatcher so a batch of submissions
     * can be enqueued, then released atomically — the load test uses
     * this to assert strict FIFO-within-priority dispatch order.
     */
    void pauseDispatch();
    void resumeDispatch();

    const JobConfig& config() const { return config_; }

  private:
    friend struct Subscription;

    struct Job
    {
        std::string id;
        SweepSpec spec{{}, {}};
        unsigned priority = 0;
        JobState state = JobState::Queued;
        bool deduped = false;
        bool cancelRequested = false;
        std::uint64_t submitSeq = 0;
        std::uint64_t startSeq = 0;
        std::size_t completedCells = 0;
        std::vector<JobCell> cells;
        std::string error;

        // Latency instrumentation (daemon self-observability only;
        // steady_clock in serve/ is lint-exempt by design).
        std::chrono::steady_clock::time_point submitTime{};
        std::chrono::steady_clock::time_point startTime{};
    };

    JobStatus snapshotLocked(const Job& job) const WG_REQUIRES(mu_);
    /** Highest-priority, oldest queued job; null when none. */
    std::shared_ptr<Job> nextQueuedLocked() const WG_REQUIRES(mu_);
    void dispatcherLoop();
    void runJob(std::shared_ptr<Job> job);
    bool validateSpec(const SweepSpec& spec, std::string& error) const;

    /**
     * Advance @p sub's cursor by one step: copy the next completed
     * cell into @p cell, or queue a progress frame when the cursor has
     * just caught up, or the result frame once the job is terminal.
     * @return false when there is nothing to deliver yet.
     */
    bool advanceLocked(Subscription& sub, std::optional<JobCell>& cell)
        WG_REQUIRES(mu_);
    /** Throughput-derived ETA in ms; < 0 when unknowable. */
    double etaMsLocked(const Job& job) const WG_REQUIRES(mu_);
    /** Record terminal-transition latencies for @p job. */
    void recordLatenciesLocked(Job& job) WG_REQUIRES(mu_);
    void logEvent(EventLog::Level level, const std::string& event,
                  std::initializer_list<
                      std::pair<const char*, std::string>>
                      fields) const;

    ExperimentRunner& runner_;
    JobConfig config_;

    mutable Mutex mu_;
    CondVar dispatch_cv_; ///< dispatcher wakeups
    CondVar idle_cv_;     ///< drain/destructor waits

    std::map<std::string, std::shared_ptr<Job>> jobs_
        WG_GUARDED_BY(mu_); ///< by id
    std::vector<std::shared_ptr<Job>> order_
        WG_GUARDED_BY(mu_); ///< submission order
    std::map<std::string, std::string> dedup_
        WG_GUARDED_BY(mu_); ///< canonical key -> id

    std::uint64_t next_id_ WG_GUARDED_BY(mu_) = 1;
    std::uint64_t submit_tick_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t start_tick_ WG_GUARDED_BY(mu_) = 0;
    std::size_t queued_ WG_GUARDED_BY(mu_) = 0;
    std::size_t running_ WG_GUARDED_BY(mu_) = 0;
    bool draining_ WG_GUARDED_BY(mu_) = false;
    bool stopping_ WG_GUARDED_BY(mu_) = false;
    bool paused_ WG_GUARDED_BY(mu_) = false;

    // Lifetime counters for publishStats.
    std::uint64_t submitted_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t dedupHits_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t rejected_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t cancelled_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t failed_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t cellsCompleted_ WG_GUARDED_BY(mu_) = 0;

    // Subscription accounting.
    std::uint64_t subsOpened_ WG_GUARDED_BY(mu_) = 0;
    std::uint64_t subsClosed_ WG_GUARDED_BY(mu_) = 0;

    // Latency histograms (seconds).
    LatencyHistogram admissionWait_ WG_GUARDED_BY(mu_);
    LatencyHistogram runDuration_ WG_GUARDED_BY(mu_);
    LatencyHistogram endToEnd_ WG_GUARDED_BY(mu_);

    std::thread dispatcher_;
};

/**
 * One reader's cursor over a job's completed cells. The consumer (a
 * connection thread) owns it and is its only user; it reads the job
 * only through JobManager, under the manager's lock. The frames here
 * belong to at most one rendered cell, plus the progress or result
 * frame the cursor queued after it.
 */
struct Subscription
{
    std::string jobId;

  private:
    friend class JobManager;

    std::shared_ptr<const JobManager::Job> job;
    std::size_t nextCell = 0;       ///< next JobCell to render
    std::deque<std::string> frames; ///< rendered, not yet delivered
    bool progressDue = true; ///< owe a progress frame at catch-up
    bool terminal = false;   ///< result frame queued; stream is ending
    bool closed = false;     ///< unsubscribed
};

} // namespace wg::serve
