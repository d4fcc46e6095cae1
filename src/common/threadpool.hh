/**
 * @file
 * Shared fixed-size FIFO thread pool.
 *
 * All simulator parallelism funnels through one pool sized to the
 * hardware (ThreadPool::global()): Gpu::runPrograms submits per-SM
 * jobs, ExperimentRunner::runAll submits whole simulations, and wgsim
 * submits per-benchmark sweeps. A single pool keeps the host fully
 * busy without oversubscribing it the way one-OS-thread-per-SM
 * std::async did.
 *
 * Tasks wait in one FIFO queue, and an idle worker takes the oldest.
 * Each queued task records its owner: the task that submitted it, or
 * the submitting thread when that thread is not running a pool task.
 * Owner ids come from one counter and are never reused.
 *
 * Nested submission is deadlock-free by isolation: wait() runs only
 * the waiter's own queued children, newest first, and then blocks.
 * Only the waiter can queue more of its own children, so once none is
 * queued, each child it waits on is running on another thread. A
 * waiter never runs a task that is not its child, so it never
 * re-enters work it is itself part of (a single-flight owner cannot
 * pick up a request for its own key). A pool of size 1, or a pool
 * task that fans out sub-tasks, therefore still makes progress.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace wg {

/** Lifetime execution counters of a pool (self-profiling). */
struct PoolStats
{
    std::uint64_t tasksExecuted = 0; ///< tasks run to completion
    double busySeconds = 0.0;        ///< exclusive task time, workers only
    std::uint64_t queueDepth = 0;    ///< tasks queued, not yet started
    std::uint64_t active = 0;        ///< tasks currently executing
    unsigned threads = 0;            ///< worker-thread count
    bool draining = false;           ///< drain() has begun
};

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means
     *        std::thread::hardware_concurrency() (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * The process-wide pool, created on first use and sized to the
     * hardware. Every subsystem shares it so concurrent sweeps cannot
     * oversubscribe the host.
     */
    static ThreadPool& global();

    /** Worker-thread count. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Submit a nullary callable; its result arrives via the future. */
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

    /**
     * Block until @p fut is ready. While it is not, run the caller's
     * own queued children (tasks submitted by the calling task, or by
     * the calling thread outside any task), newest first; when none is
     * left, block without polling. This is what makes nested fan-out
     * deadlock-free.
     *
     * Precondition for a pool task: @p fut belongs to one of its own
     * children. For any other future wait() only blocks, and a pool
     * whose every worker so blocks on queued work deadlocks.
     */
    template <typename T>
    T wait(std::future<T>& fut)
    {
        while (fut.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready &&
               runOwnChild()) {
        }
        return fut.get();
    }

    /** wait() over a whole batch, in order. */
    template <typename T>
    std::vector<T> waitAll(std::vector<std::future<T>>& futs)
    {
        std::vector<T> out;
        out.reserve(futs.size());
        for (auto& f : futs)
            out.push_back(wait(f));
        return out;
    }

    /**
     * Graceful shutdown: reject new external submissions and block
     * until every queued and running task has finished.
     *
     * Semantics chosen for a draining daemon:
     *   - External submit() calls made after drain() begins throw
     *     std::runtime_error — callers must stop feeding the pool.
     *   - Submissions from *inside* a pool task (nested fan-out, e.g. a
     *     running simulation spawning its per-SM jobs) are still
     *     accepted; rejecting them would strand in-flight work and
     *     deadlock the drain.
     *   - Safe on the leaked global() pool of a dying process: drain
     *     only waits for quiescence, it never joins worker threads, so
     *     it cannot deadlock against the intentionally-skipped
     *     destructor (the OS reclaims the workers at exit).
     *
     * Draining is terminal for the pool (there is no resume); create a
     * fresh pool for new work. Calling drain() again returns once the
     * pool is quiescent. Calling it from inside a pool task is a
     * logic error and panics (the caller's own task could never
     * finish, so quiescence would be unreachable).
     */
    void drain();

    /** True once drain() has begun. */
    bool draining() const;

    /**
     * Tasks executed (by any thread) and busy time since
     * construction. The counters are sampled independently (not a
     * consistent snapshot); utilization derived from them is a
     * profiling estimate. Busy time is exclusive — a task that runs
     * nested tasks while it waits is not charged for them — and counts
     * worker threads only, so utilization = busySeconds /
     * (elapsed * size()) stays within [0, 1]. queueDepth, active and
     * draining are a point-in-time view taken under the pool lock.
     * A task's future is ready before the task leaves these counters,
     * so drain() first when exact totals matter.
     */
    PoolStats stats() const;

  private:
    /** A queued task and the id of the task or thread that queued it. */
    struct Task
    {
        std::function<void()> fn;
        std::uint64_t owner = 0;
    };

    void enqueue(std::function<void()> fn);
    bool runOwnChild();
    void runTask(std::function<void()>& task);
    void finishTask();
    void workerLoop();

    // One coarse lock: contention is negligible next to a simulation
    // task.
    mutable Mutex mu_;
    CondVar cv_;
    std::deque<Task> queue_ WG_GUARDED_BY(mu_); ///< oldest first
    std::vector<std::thread> workers_;
    bool stop_ WG_GUARDED_BY(mu_) = false;
    bool draining_ WG_GUARDED_BY(mu_) =
        false; ///< drain() begun; external submits throw
    std::size_t active_ WG_GUARDED_BY(mu_) = 0; ///< tasks currently executing
    CondVar drain_cv_; ///< signalled as tasks finish

    // Self-profiling counters; relaxed atomics, the two are not a
    // consistent pair (see stats()).
    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> busy_ns_{0};
};

} // namespace wg

