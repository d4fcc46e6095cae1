#include "threadpool.hh"

#include <algorithm>
#include <stdexcept>

#include "logging.hh"

namespace wg {

namespace {

/** Identity of the pool worker running on this thread, if any. */
thread_local ThreadPool* tls_pool = nullptr;
thread_local unsigned tls_index = 0;

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
    deques_.resize(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
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
    {
        MutexLock lock(mu_);
        // Draining rejects *external* work only: a running task's
        // nested fan-out (per-SM jobs of an in-flight simulation) must
        // still land, or the drain could never finish (see drain()).
        if (draining_ && tls_pool != this)
            throw std::runtime_error(
                "ThreadPool: submit on a draining pool");
        // A worker keeps its fan-out local; external submitters spread
        // round-robin so idle workers have something to steal.
        std::size_t target = (tls_pool == this)
                                 ? tls_index
                                 : (next_++ % deques_.size());
        deques_[target].push_back(std::move(fn));
    }
    cv_.notifyOne();
}

bool
ThreadPool::popTask(unsigned preferred, std::function<void()>& out)
{
    // LIFO on the own deque (cache-warm, depth-first fan-out), FIFO
    // steals from siblings (oldest work first).
    if (!deques_[preferred].empty()) {
        out = std::move(deques_[preferred].back());
        deques_[preferred].pop_back();
        return true;
    }
    for (std::size_t i = 1; i < deques_.size(); ++i) {
        std::size_t victim = (preferred + i) % deques_.size();
        if (!deques_[victim].empty()) {
            out = std::move(deques_[victim].front());
            deques_[victim].pop_front();
            ++steals_;
            return true;
        }
    }
    return false;
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        MutexLock lock(mu_);
        unsigned preferred = (tls_pool == this) ? tls_index : 0;
        if (!popTask(preferred, task))
            return false;
        ++active_;
    }
    runTask(task);
    finishTask();
    return true;
}

void
ThreadPool::runTask(std::function<void()>& task)
{
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
    // Tasks this one ran while helping in wait() timed themselves;
    // count only the exclusive rest, and only on this pool's workers,
    // so busy time never exceeds size() x wall time.
    if (tls_pool == this)
        busy_ns_.fetch_add(ns - std::min(ns, tls_nested_ns),
                           std::memory_order_relaxed);
    tls_nested_ns = outer_nested + ns;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::finishTask()
{
    bool quiescent = false;
    {
        MutexLock lock(mu_);
        --active_;
        quiescent = draining_ && active_ == 0 && !pendingLocked();
    }
    // Only a drain waiter sleeps on drain_cv_, and only the last task
    // out can satisfy it; skipping the notify otherwise keeps the
    // per-task overhead at one uncontended decrement.
    if (quiescent)
        drain_cv_.notifyAll();
}

bool
ThreadPool::pendingLocked() const
{
    for (const auto& d : deques_)
        if (!d.empty())
            return true;
    return false;
}

void
ThreadPool::drain()
{
    if (tls_pool == this)
        panic("ThreadPool::drain called from inside a pool task");
    MutexLock lock(mu_);
    draining_ = true;
    while (active_ != 0 || pendingLocked())
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
        for (const auto& d : deques_)
            s.queueDepth += d.size();
        s.active = active_;
        s.steals = steals_;
        s.draining = draining_;
    }
    s.threads = size();
    return s;
}

void
ThreadPool::helpWhile(const std::function<bool()>& busy)
{
    while (busy()) {
        if (!tryRunOne()) {
            // Nothing to steal: the awaited task is already running on
            // another thread. Back off briefly instead of spinning.
            std::this_thread::yield();
            // Backoff affects wall-clock only. wglint:allow(D1)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

void
ThreadPool::workerLoop(unsigned index)
{
    tls_pool = this;
    tls_index = index;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mu_);
            while (!stop_ && !pendingLocked())
                cv_.wait(lock);
            if (stop_ && !popTask(index, task))
                return;
            if (!task && !popTask(index, task))
                continue;
            ++active_;
        }
        runTask(task);
        finishTask();
    }
}

} // namespace wg
