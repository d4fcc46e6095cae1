#include "jobs.hh"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>

#include "metrics/registry.hh"
#include "serve/stream.hh"
#include "serve/wire.hh"
#include "workload/profile.hh"

namespace wg::serve {

namespace {

bool
isTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Cancelled ||
           state == JobState::Failed;
}

/** Elapsed seconds between two monotonic samples (serve-side only). */
double
elapsedSeconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

const char*
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Cancelled: return "cancelled";
      case JobState::Failed: return "failed";
    }
    return "?";
}

JobManager::JobManager(ExperimentRunner& runner, JobConfig config)
    : runner_(runner), config_(config)
{
    if (config_.numPriorities == 0)
        config_.numPriorities = 1;
    if (config_.maxConcurrentJobs == 0)
        config_.maxConcurrentJobs = 1;
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

JobManager::~JobManager()
{
    {
        MutexLock lock(mu_);
        stopping_ = true;
        draining_ = true;
        // Queued jobs are abandoned (Cancelled); running jobs must
        // finish — their pool tasks reference manager state.
        for (auto& job : order_) {
            if (job->state == JobState::Queued) {
                job->state = JobState::Cancelled;
                --queued_;
                ++cancelled_;
            }
        }
        dispatch_cv_.notifyAll();
        while (running_ != 0)
            idle_cv_.wait(lock);
    }
    dispatcher_.join();
}

bool
JobManager::validateSpec(const SweepSpec& spec,
                         std::string& error) const
{
    if (spec.benches.empty() || spec.techniques.empty()) {
        error = "sweep must name at least one benchmark and technique";
        return false;
    }
    const std::vector<std::string> known = benchmarkNames();
    std::set<std::string> seen_benches;
    for (const std::string& b : spec.benches) {
        if (std::find(known.begin(), known.end(), b) == known.end()) {
            error = "unknown benchmark '" + b + "'";
            return false;
        }
        if (!seen_benches.insert(b).second) {
            error = "duplicate benchmark '" + b + "' in sweep";
            return false;
        }
    }
    std::set<Technique> seen_techniques;
    for (Technique t : spec.techniques) {
        if (!seen_techniques.insert(t).second) {
            error = std::string("duplicate technique '") +
                    techniqueName(t) + "' in sweep";
            return false;
        }
        // The runner would fatal() on an invalid derived config;
        // admission must reject instead so a bad request can never
        // take the daemon down.
        const ExperimentOptions& opts =
            spec.options ? *spec.options : runner_.options();
        std::vector<std::string> problems =
            makeConfig(t, opts).validate();
        if (!problems.empty()) {
            error = std::string("invalid configuration for ") +
                    techniqueName(t) + ": " + problems.front();
            return false;
        }
    }
    return true;
}

JobManager::SubmitOutcome
JobManager::submit(const SweepSpec& spec, unsigned priority)
{
    SubmitOutcome out;
    std::string error;
    if (!validateSpec(spec, error)) {
        MutexLock lock(mu_);
        ++rejected_;
        out.error = error;
        logEvent(EventLog::Level::Warn, "submitRejected",
                 {{"reason", error}});
        return out;
    }
    const std::string key = wire::canonicalKey(spec);

    MutexLock lock(mu_);
    if (priority >= config_.numPriorities) {
        ++rejected_;
        out.error = "priority must be in [0, " +
                    std::to_string(config_.numPriorities) + ")";
        logEvent(EventLog::Level::Warn, "submitRejected",
                 {{"reason", out.error}});
        return out;
    }
    if (draining_) {
        ++rejected_;
        out.error = "daemon is draining; not accepting new jobs";
        logEvent(EventLog::Level::Warn, "submitRejected",
                 {{"reason", out.error}});
        return out;
    }

    // Whole-job dedup in front of the runner cache: an equivalent live
    // job absorbs the submission (and may be promoted).
    auto dup = dedup_.find(key);
    if (dup != dedup_.end()) {
        auto it = jobs_.find(dup->second);
        if (it != jobs_.end() &&
            it->second->state != JobState::Cancelled &&
            it->second->state != JobState::Failed) {
            Job& job = *it->second;
            job.deduped = true;
            if (job.state == JobState::Queued &&
                priority > job.priority) {
                job.priority = priority;
                dispatch_cv_.notifyAll();
            }
            ++dedupHits_;
            out.ok = true;
            out.id = job.id;
            out.deduped = true;
            logEvent(EventLog::Level::Debug, "submitDeduped",
                     {{"id", job.id}});
            return out;
        }
        dedup_.erase(dup); // stale mapping (cancelled/failed): retry
    }

    if (queued_ >= config_.queueCapacity) {
        ++rejected_;
        out.error = "admission queue full (" +
                    std::to_string(config_.queueCapacity) +
                    " queued jobs)";
        logEvent(EventLog::Level::Warn, "submitRejected",
                 {{"reason", out.error}});
        return out;
    }

    auto job = std::make_shared<Job>();
    job->id = "j" + std::to_string(next_id_++);
    job->spec = spec;
    job->priority = priority;
    job->submitSeq = ++submit_tick_;
    job->submitTime = std::chrono::steady_clock::now();
    jobs_[job->id] = job;
    order_.push_back(job);
    dedup_[key] = job->id;
    ++queued_;
    ++submitted_;
    dispatch_cv_.notifyAll();
    out.ok = true;
    out.id = job->id;
    logEvent(EventLog::Level::Info, "jobSubmitted",
             {{"id", job->id},
              {"priority", std::to_string(priority)}});
    return out;
}

JobStatus
JobManager::snapshotLocked(const Job& job) const
{
    JobStatus s;
    s.id = job.id;
    s.state = job.state;
    s.priority = job.priority;
    s.totalCells = job.spec.benches.size() * job.spec.techniques.size();
    s.completedCells = job.completedCells;
    s.deduped = job.deduped;
    s.submitSeq = job.submitSeq;
    s.startSeq = job.startSeq;
    s.error = job.error;
    return s;
}

std::optional<JobStatus>
JobManager::status(const std::string& id) const
{
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return snapshotLocked(*it->second);
}

std::vector<JobStatus>
JobManager::listJobs() const
{
    MutexLock lock(mu_);
    std::vector<JobStatus> out;
    out.reserve(order_.size());
    for (const auto& job : order_)
        out.push_back(snapshotLocked(*job));
    return out;
}

bool
JobManager::results(const std::string& id, std::vector<JobCell>& out,
                    ExperimentOptions& optsUsed,
                    std::string& error) const
{
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "unknown job '" + id + "'";
        return false;
    }
    const Job& job = *it->second;
    if (job.state != JobState::Done) {
        error = "job '" + id + "' is " + jobStateName(job.state) +
                ", results require state done";
        return false;
    }
    out = job.cells;
    optsUsed = job.spec.options ? *job.spec.options : runner_.options();
    return true;
}

bool
JobManager::checkpoint(const std::string& id, SweepSpec& spec,
                       std::vector<JobCell>& cells,
                       std::string& error) const
{
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "unknown job '" + id + "'";
        return false;
    }
    const Job& job = *it->second;
    // Pin the effective options into the spec so the snapshot's cell
    // keys stay addressable on a daemon with different defaults.
    spec = job.spec;
    if (!spec.options)
        spec.options = runner_.options();
    cells = job.cells;
    return true;
}

std::size_t
JobManager::seedCells(const std::vector<wire::ResultCell>& cells)
{
    std::size_t seeded = 0;
    for (const wire::ResultCell& cell : cells) {
        bool known = false;
        for (const std::string& b : benchmarkNames())
            known = known || b == cell.bench;
        if (!known)
            continue; // never poison the cache with unknown keys
        if (runner_.seedCache(cell.bench, cell.technique, cell.options,
                              cell.result))
            ++seeded;
    }
    if (seeded != 0)
        logEvent(EventLog::Level::Info, "cellsSeeded",
                 {{"count", std::to_string(seeded)}});
    return seeded;
}

bool
JobManager::cancel(const std::string& id, std::string& error)
{
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "unknown job '" + id + "'";
        return false;
    }
    Job& job = *it->second;
    switch (job.state) {
      case JobState::Queued:
        job.state = JobState::Cancelled;
        --queued_;
        ++cancelled_;
        recordLatenciesLocked(job);
        logEvent(EventLog::Level::Info, "jobCancelled", {{"id", id}});
        idle_cv_.notifyAll();
        return true;
      case JobState::Running:
        // Takes effect at the job's next cell boundary.
        job.cancelRequested = true;
        logEvent(EventLog::Level::Info, "cancelRequested",
                 {{"id", id}});
        return true;
      case JobState::Done:
      case JobState::Cancelled:
      case JobState::Failed:
        error = "job '" + id + "' already finished (" +
                jobStateName(job.state) + ")";
        return false;
    }
    return false;
}

void
JobManager::drain()
{
    MutexLock lock(mu_);
    draining_ = true;
    while (queued_ != 0 || running_ != 0)
        idle_cv_.wait(lock);
}

bool
JobManager::draining() const
{
    MutexLock lock(mu_);
    return draining_;
}

void
JobManager::pauseDispatch()
{
    MutexLock lock(mu_);
    paused_ = true;
}

void
JobManager::resumeDispatch()
{
    MutexLock lock(mu_);
    paused_ = false;
    dispatch_cv_.notifyAll();
}

void
JobManager::publishStats(StatSet& set) const
{
    CacheStats cache = runner_.cacheStats();
    // Pool stats take the pool's own lock; gather before mu_ so the
    // lock order stays acyclic.
    PoolStats pool{};
    const bool havePool = runner_.pool() != nullptr;
    if (havePool)
        pool = runner_.pool()->stats();
    MutexLock lock(mu_);
    set.set("serve.jobs.submitted", static_cast<double>(submitted_));
    set.set("serve.jobs.deduped", static_cast<double>(dedupHits_));
    set.set("serve.jobs.rejected", static_cast<double>(rejected_));
    set.set("serve.jobs.completed", static_cast<double>(completed_));
    set.set("serve.jobs.cancelled", static_cast<double>(cancelled_));
    set.set("serve.jobs.failed", static_cast<double>(failed_));
    set.set("serve.jobs.queued", static_cast<double>(queued_));
    set.set("serve.jobs.running", static_cast<double>(running_));
    set.set("serve.queue.capacity",
            static_cast<double>(config_.queueCapacity));
    std::vector<std::size_t> depth(config_.numPriorities, 0);
    for (const auto& job : order_)
        if (job->state == JobState::Queued)
            ++depth[job->priority];
    for (unsigned p = 0; p < config_.numPriorities; ++p)
        set.set("serve.queue.priority" + std::to_string(p) + ".depth",
                static_cast<double>(depth[p]));
    set.set("serve.cells.completed",
            static_cast<double>(cellsCompleted_));
    set.set("serve.cache.hits", static_cast<double>(cache.hits));
    set.set("serve.cache.misses", static_cast<double>(cache.misses));
    set.set("serve.cache.entries", static_cast<double>(cache.entries));
    set.set("serve.cache.inFlight",
            static_cast<double>(cache.inFlight));
    set.set("serve.subscriptions.opened",
            static_cast<double>(subsOpened_));
    set.set("serve.subscriptions.active",
            static_cast<double>(subsOpened_ - subsClosed_));
    // Scalar latency summaries; the OpenMetrics exposition carries the
    // full histograms via latencySnapshot().
    set.set("serve.latency.admissionWait.count",
            static_cast<double>(admissionWait_.total()));
    set.set("serve.latency.admissionWait.sumSeconds",
            admissionWait_.sum());
    set.set("serve.latency.runDuration.count",
            static_cast<double>(runDuration_.total()));
    set.set("serve.latency.runDuration.sumSeconds",
            runDuration_.sum());
    set.set("serve.latency.endToEnd.count",
            static_cast<double>(endToEnd_.total()));
    set.set("serve.latency.endToEnd.sumSeconds", endToEnd_.sum());
    if (havePool) {
        set.set("pool.threads", static_cast<double>(pool.threads));
        set.set("pool.tasksExecuted",
                static_cast<double>(pool.tasksExecuted));
        set.set("pool.busySeconds", pool.busySeconds);
        set.set("pool.queueDepth",
                static_cast<double>(pool.queueDepth));
        set.set("pool.active", static_cast<double>(pool.active));
        set.set("pool.draining", pool.draining ? 1.0 : 0.0);
    }
}

std::shared_ptr<JobManager::Job>
JobManager::nextQueuedLocked() const
{
    // Highest priority wins; FIFO (submit order) within a priority.
    std::shared_ptr<Job> best;
    for (const auto& j : order_) {
        if (j->state != JobState::Queued)
            continue;
        if (!best || j->priority > best->priority ||
            (j->priority == best->priority &&
             j->submitSeq < best->submitSeq))
            best = j;
    }
    return best;
}

void
JobManager::dispatcherLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            MutexLock lock(mu_);
            // Explicit wait loop (not a predicate lambda): clang's
            // thread-safety analysis cannot see mu_ held inside a
            // lambda body, so the guarded reads stay inline here.
            for (;;) {
                if (stopping_)
                    return;
                if (!paused_ &&
                    running_ < config_.maxConcurrentJobs) {
                    job = nextQueuedLocked();
                    if (job != nullptr)
                        break;
                }
                dispatch_cv_.wait(lock);
            }
            job->state = JobState::Running;
            job->startSeq = ++start_tick_;
            job->startTime = std::chrono::steady_clock::now();
            admissionWait_.record(
                elapsedSeconds(job->submitTime, job->startTime));
            --queued_;
            ++running_;
            logEvent(EventLog::Level::Debug, "jobStarted",
                     {{"id", job->id}});
        }
        ThreadPool* pool = runner_.pool();
        if (pool == nullptr) {
            runJob(job);
            continue;
        }
        try {
            pool->submit([this, job] { runJob(job); });
        } catch (const std::exception& e) {
            // Pool already draining (shutdown race): fail the job
            // instead of losing it silently.
            MutexLock lock(mu_);
            job->state = JobState::Failed;
            job->error = e.what();
            ++failed_;
            --running_;
            idle_cv_.notifyAll();
        }
    }
}

void
JobManager::runJob(std::shared_ptr<Job> job)
{
    std::string failure;
    bool cancelled = false;
    try {
        for (const std::string& bench : job->spec.benches) {
            for (Technique t : job->spec.techniques) {
                {
                    MutexLock lock(mu_);
                    if (job->cancelRequested) {
                        cancelled = true;
                        break;
                    }
                }
                MeteredResult r = runner_.runMetered(
                    bench, t, job->spec.options);
                MutexLock lock(mu_);
                job->cells.push_back(
                    JobCell{bench, t, r.result, r.series});
                ++job->completedCells;
                ++cellsCompleted_;
            }
            if (cancelled)
                break;
        }
    } catch (const std::exception& e) {
        failure = e.what();
    }
    MutexLock lock(mu_);
    if (!failure.empty()) {
        job->state = JobState::Failed;
        job->error = failure;
        ++failed_;
    } else if (cancelled || job->cancelRequested) {
        job->state = JobState::Cancelled;
        ++cancelled_;
    } else {
        job->state = JobState::Done;
        ++completed_;
    }
    recordLatenciesLocked(*job);
    logEvent(EventLog::Level::Info, "jobFinished",
             {{"id", job->id},
              {"state", jobStateName(job->state)},
              {"cells", std::to_string(job->completedCells)}});
    --running_;
    dispatch_cv_.notifyAll();
    idle_cv_.notifyAll();
}

std::shared_ptr<Subscription>
JobManager::subscribe(const std::string& id, std::string& error)
{
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "unknown job '" + id + "'";
        return nullptr;
    }
    auto sub = std::make_shared<Subscription>();
    sub->jobId = id;
    sub->job = it->second;
    ++subsOpened_;
    // A cursor that starts caught up owes its progress frame now, so a
    // prompt subscriber sees the job's state at subscribe time.
    if (it->second->cells.empty()) {
        std::optional<JobCell> none;
        advanceLocked(*sub, none);
    }
    logEvent(EventLog::Level::Debug, "subscribed", {{"id", id}});
    return sub;
}

void
JobManager::unsubscribe(const std::shared_ptr<Subscription>& sub)
{
    if (sub == nullptr)
        return;
    MutexLock lock(mu_);
    if (sub->closed)
        return;
    sub->closed = true;
    ++subsClosed_;
    logEvent(EventLog::Level::Debug, "unsubscribed",
             {{"id", sub->jobId}});
}

bool
JobManager::advanceLocked(Subscription& sub,
                          std::optional<JobCell>& cell)
{
    const Job& job = *sub.job;
    if (sub.nextCell < job.cells.size()) {
        cell = job.cells[sub.nextCell++];
        sub.progressDue = true;
        return true;
    }
    if (sub.progressDue) {
        const std::size_t total =
            job.spec.benches.size() * job.spec.techniques.size();
        sub.frames.push_back(stream::progressFrame(
            job.id, job.completedCells, total, etaMsLocked(job)));
        sub.progressDue = false;
        return true;
    }
    if (!isTerminal(job.state))
        return false;
    sub.frames.push_back(
        stream::resultFrame(job.id, jobStateName(job.state), job.error));
    sub.terminal = true;
    return true;
}

bool
JobManager::nextFrame(Subscription& sub, std::string& out)
{
    while (sub.frames.empty()) {
        if (sub.terminal)
            return false;
        std::optional<JobCell> cell;
        {
            MutexLock lock(mu_);
            if (!advanceLocked(sub, cell))
                return false;
        }
        if (!cell)
            continue;
        // The frame builders are pure: render outside the lock.
        std::vector<std::string> frames = stream::cellFrames(
            sub.jobId, sub.nextCell - 1, cell->bench,
            techniqueName(cell->technique), cell->series.get(),
            metrics::toStatSet(*cell->result));
        sub.frames.assign(std::make_move_iterator(frames.begin()),
                          std::make_move_iterator(frames.end()));
    }
    out = std::move(sub.frames.front());
    sub.frames.pop_front();
    return true;
}

bool
JobManager::subscriptionDone(const Subscription& sub) const
{
    return sub.terminal && sub.frames.empty();
}

LatencySnapshot
JobManager::latencySnapshot() const
{
    MutexLock lock(mu_);
    LatencySnapshot snap;
    snap.admissionWait = admissionWait_;
    snap.runDuration = runDuration_;
    snap.endToEnd = endToEnd_;
    return snap;
}

double
JobManager::etaMsLocked(const Job& job) const
{
    if (job.state != JobState::Running || job.completedCells == 0)
        return -1.0;
    const std::size_t total =
        job.spec.benches.size() * job.spec.techniques.size();
    if (job.completedCells >= total)
        return 0.0;
    const double perCell =
        elapsedSeconds(job.startTime,
                       std::chrono::steady_clock::now()) /
        static_cast<double>(job.completedCells);
    return perCell * static_cast<double>(total - job.completedCells) *
           1000.0;
}

void
JobManager::recordLatenciesLocked(Job& job)
{
    const auto now = std::chrono::steady_clock::now();
    if (job.startSeq != 0)
        runDuration_.record(elapsedSeconds(job.startTime, now));
    endToEnd_.record(elapsedSeconds(job.submitTime, now));
}

void
JobManager::logEvent(
    EventLog::Level level, const std::string& event,
    std::initializer_list<std::pair<const char*, std::string>> fields)
    const
{
    if (config_.events != nullptr)
        config_.events->log(level, event, fields);
}

} // namespace wg::serve
