#include "threadpool.hh"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "logging.hh"

namespace wg {

namespace {

/** The pool this thread is a worker of, if any. */
thread_local ThreadPool* tls_pool = nullptr;

/**
 * Owner id of this thread's submissions: the running task's id, or
 * this thread's own id outside any task. One counter serves every
 * pool and thread, so an id is never reused.
 */
std::atomic<std::uint64_t> next_id{1};
thread_local std::uint64_t tls_self = next_id++;

/** Time this thread spent in tasks nested inside the running one. */
thread_local std::uint64_t tls_nested_ns = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    cv_.notifyAll();
    for (std::thread& t : workers_)
        t.join();
}

ThreadPool&
ThreadPool::global()
{
    // Intentionally leaked: the shared pool must outlive every static
    // object that might touch it during teardown, and exit() from a
    // forked child (gtest death tests fork after the workers exist in
    // the parent only) must not try to join threads this process never
    // had. Skipping the destructor sidesteps both; the OS reclaims the
    // workers at process exit.
    static ThreadPool* pool = new ThreadPool();
    return *pool;
}

void
ThreadPool::enqueue(std::function<void()> fn)
{
    const std::uint64_t owner = tls_self;
    {
        MutexLock lock(mu_);
        // Draining rejects *external* work only: a running task's
        // nested fan-out (per-SM jobs of an in-flight simulation) must
        // still land, or the drain could never finish (see drain()).
        if (draining_ && tls_pool != this)
            throw std::runtime_error(
                "ThreadPool: submit on a draining pool");
        queue_.push_back(Task{std::move(fn), owner});
    }
    cv_.notifyOne();
}

bool
ThreadPool::runOwnChild()
{
    const std::uint64_t self = tls_self;
    Task task;
    {
        MutexLock lock(mu_);
        // Newest first: the child queued last is the one no idle
        // worker is about to reach.
        auto it = std::find_if(
            queue_.rbegin(), queue_.rend(),
            [self](const Task& t) { return t.owner == self; });
        if (it == queue_.rend())
            return false;
        task = std::move(*it);
        queue_.erase(std::next(it).base());
        ++active_;
    }
    runTask(task.fn);
    finishTask();
    return true;
}

void
ThreadPool::runTask(std::function<void()>& task)
{
    const std::uint64_t outer_self = tls_self;
    tls_self = next_id++;
    const std::uint64_t outer_nested = tls_nested_ns;
    tls_nested_ns = 0;
    // Pool self-profiling only (PoolStats.busySeconds); never feeds
    // simulation results. wglint:allow(D1)
    auto t0 = std::chrono::steady_clock::now();
    task();
    auto t1 = std::chrono::steady_clock::now(); // wglint:allow(D1)
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    // Children this one ran inside wait() timed themselves; count
    // only the exclusive rest, and only on this pool's workers, so
    // busy time never exceeds size() x wall time.
    if (tls_pool == this)
        busy_ns_.fetch_add(ns - std::min(ns, tls_nested_ns),
                           std::memory_order_relaxed);
    tls_nested_ns = outer_nested + ns;
    tls_self = outer_self;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::finishTask()
{
    bool quiescent = false;
    {
        MutexLock lock(mu_);
        --active_;
        quiescent = draining_ && active_ == 0 && queue_.empty();
    }
    // Only a drain waiter sleeps on drain_cv_, and only the last task
    // out can satisfy it; skipping the notify otherwise keeps the
    // per-task overhead at one uncontended decrement.
    if (quiescent)
        drain_cv_.notifyAll();
}

void
ThreadPool::drain()
{
    if (tls_pool == this)
        panic("ThreadPool::drain called from inside a pool task");
    MutexLock lock(mu_);
    draining_ = true;
    while (active_ != 0 || !queue_.empty())
        drain_cv_.wait(lock);
}

bool
ThreadPool::draining() const
{
    MutexLock lock(mu_);
    return draining_;
}

PoolStats
ThreadPool::stats() const
{
    PoolStats s;
    s.tasksExecuted = tasks_executed_.load(std::memory_order_relaxed);
    s.busySeconds =
        static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    {
        MutexLock lock(mu_);
        s.queueDepth = queue_.size();
        s.active = active_;
        s.draining = draining_;
    }
    s.threads = size();
    return s;
}

void
ThreadPool::workerLoop()
{
    tls_pool = this;
    for (;;) {
        Task task;
        {
            MutexLock lock(mu_);
            while (!stop_ && queue_.empty())
                cv_.wait(lock);
            if (queue_.empty())
                return; // stopping, and every queued task has run
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        runTask(task.fn);
        finishTask();
    }
}

} // namespace wg
