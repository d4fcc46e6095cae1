/**
 * @file
 * Unit tests for the shared FIFO thread pool: result delivery,
 * exception propagation, nested fan-out (the Gpu-inside-
 * ExperimentRunner shape), deadlock-freedom at pool size 1, and wait()
 * running only the waiter's own children.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace wg {
namespace {

TEST(ThreadPool, GlobalPoolSizedToHardware)
{
    ThreadPool& pool = ThreadPool::global();
    EXPECT_GE(pool.size(), 1u);
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) {
        EXPECT_EQ(pool.size(), hw);
    }
    EXPECT_EQ(&pool, &ThreadPool::global()) << "one shared instance";
}

TEST(ThreadPool, SubmitReturnsResults)
{
    ThreadPool pool(2);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(pool.wait(f), 42);
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futs;
    for (int i = 1; i <= 100; ++i)
        futs.push_back(pool.submit([&sum, i] { sum += i; }));
    for (auto& f : futs)
        pool.wait(f);
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, WaitAllPreservesOrder)
{
    ThreadPool pool(2);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 20; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    std::vector<int> out = pool.waitAll(futs);
    ASSERT_EQ(out.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(1);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(f), std::runtime_error);
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlockAtSizeOne)
{
    // The critical shape: a pool task fans sub-tasks into the same
    // pool and blocks on them. With one worker this can only complete
    // if wait() runs the waiter's own queued children.
    ThreadPool pool(1);
    auto outer = pool.submit([&pool] {
        std::vector<std::future<int>> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back(pool.submit([i] { return i; }));
        int sum = 0;
        for (auto& f : inner)
            sum += pool.wait(f);
        return sum;
    });
    EXPECT_EQ(pool.wait(outer), 28);
}

TEST(ThreadPool, TwoLevelNestingDrains)
{
    // Sweep shape: simulations fan per-SM jobs, several simulations in
    // flight at once, pool smaller than the task count.
    ThreadPool pool(2);
    std::vector<std::future<int>> sims;
    for (int s = 0; s < 6; ++s) {
        sims.push_back(pool.submit([&pool, s] {
            std::vector<std::future<int>> sm_jobs;
            for (int k = 0; k < 4; ++k)
                sm_jobs.push_back(
                    pool.submit([s, k] { return s * 10 + k; }));
            int total = 0;
            for (auto& f : sm_jobs)
                total += pool.wait(f);
            return total;
        }));
    }
    int grand = 0;
    for (auto& f : sims)
        grand += pool.wait(f);
    // sum over s of (40s + 6)
    EXPECT_EQ(grand, 40 * 15 + 6 * 6);
}

TEST(ThreadPool, WaitRunsOnlyItsOwnChildren)
{
    // A waits on its child c while an unrelated task B is queued. The
    // one worker is A itself, so whatever A's wait() runs, it runs
    // inside A. It must run c and never B: B could be a request A's
    // caller is waiting for (the single-flight alias shape).
    ThreadPool pool(1);
    std::promise<void> child_queued;
    std::promise<void> other_queued;
    std::future<void> child_queued_f = child_queued.get_future();
    std::future<void> other_queued_f = other_queued.get_future();
    std::atomic<bool> in_a_wait{false};
    std::atomic<bool> b_ran_inside_a{false};
    std::atomic<bool> b_ran{false};
    auto a = pool.submit([&] {
        auto c = pool.submit([] { return 7; });
        child_queued.set_value();
        other_queued_f.wait();
        in_a_wait = true;
        const int got = pool.wait(c);
        in_a_wait = false;
        return got;
    });
    child_queued_f.wait();
    auto b = pool.submit([&] {
        b_ran_inside_a = in_a_wait.load();
        b_ran = true;
    });
    other_queued.set_value();
    // Plain future waits: this thread must not run B itself.
    a.wait();
    b.wait();
    EXPECT_EQ(a.get(), 7);
    EXPECT_TRUE(b_ran.load());
    EXPECT_FALSE(b_ran_inside_a.load())
        << "wait() ran a task that is not the waiter's child";
}

TEST(ThreadPool, DestructionDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran++; });
    }
    EXPECT_EQ(ran.load(), 50) << "destructor joins after draining";
}

TEST(ThreadPool, DrainWaitsForQueuedAndRunning)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::atomic<bool> gate{false};
    for (int i = 0; i < 32; ++i)
        pool.submit([&ran, &gate] {
            while (!gate.load())
                std::this_thread::yield();
            ran++;
        });
    EXPECT_FALSE(pool.draining());
    gate = true;
    pool.drain();
    EXPECT_EQ(ran.load(), 32)
        << "drain must return only after every queued task ran";
    EXPECT_TRUE(pool.draining());
}

TEST(ThreadPool, DrainRejectsExternalSubmits)
{
    ThreadPool pool(2);
    pool.drain();
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
    // The rejection is permanent (drain is terminal) and repeatable.
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
    pool.drain(); // idempotent
}

TEST(ThreadPool, DrainAcceptsNestedFanOutFromRunningTasks)
{
    // The SIGTERM shape: a simulation is mid-flight when the drain
    // begins, and it must still be able to fan its per-SM jobs into
    // the pool — rejecting those would deadlock the drain.
    ThreadPool pool(2);
    std::atomic<bool> started{false};
    std::atomic<bool> go{false};
    std::atomic<int> nested_ran{0};
    std::atomic<bool> nested_threw{false};
    auto outer = pool.submit([&] {
        started = true;
        while (!go.load())
            std::this_thread::yield();
        try {
            std::vector<std::future<void>> inner;
            for (int i = 0; i < 8; ++i)
                inner.push_back(
                    pool.submit([&nested_ran] { nested_ran++; }));
            for (auto& f : inner)
                pool.wait(f);
        } catch (const std::runtime_error&) {
            nested_threw = true;
        }
    });
    while (!started.load())
        std::this_thread::yield();
    std::thread drainer([&pool] { pool.drain(); });
    while (!pool.draining())
        std::this_thread::yield();
    go = true; // outer now fans out against a draining pool
    drainer.join();
    EXPECT_FALSE(nested_threw.load())
        << "nested submissions must be accepted during drain";
    EXPECT_EQ(nested_ran.load(), 8);
    pool.wait(outer);
}

TEST(ThreadPool, DrainWithEmptyPoolReturnsImmediately)
{
    ThreadPool pool(1);
    pool.drain();
    EXPECT_TRUE(pool.draining());
}

TEST(ThreadPool, StatsReportThreadsTasksAndIdleState)
{
    ThreadPool pool(3);
    PoolStats before = pool.stats();
    EXPECT_EQ(before.threads, 3u);
    EXPECT_EQ(before.tasksExecuted, 0u);
    EXPECT_FALSE(before.draining);

    std::vector<std::future<int>> futs;
    for (int i = 0; i < 32; ++i)
        futs.push_back(pool.submit([i] { return i; }));
    pool.waitAll(futs);
    // A future is ready before its worker has counted the task; drain
    // until every runTask has recorded its counters.
    pool.drain();

    PoolStats after = pool.stats();
    EXPECT_EQ(after.tasksExecuted, 32u);
    EXPECT_GE(after.busySeconds, 0.0);
    // All tasks joined: nothing queued, nothing executing.
    EXPECT_EQ(after.queueDepth, 0u);
    EXPECT_EQ(after.active, 0u);
}

TEST(ThreadPool, NestedFanOutBusyTimeIsExclusive)
{
    // Outer tasks run their inner tasks while they wait; charging
    // an outer task for that time would count the inner work twice.
    ThreadPool pool(2);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<int>> outer;
    for (int i = 0; i < 4; ++i)
        outer.push_back(pool.submit([&pool] {
            std::vector<std::future<int>> inner;
            for (int j = 0; j < 8; ++j)
                inner.push_back(pool.submit([] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    return 1;
                }));
            const std::vector<int> done = pool.waitAll(inner);
            return std::accumulate(done.begin(), done.end(), 0);
        }));
    const std::vector<int> sums = pool.waitAll(outer);
    pool.drain(); // every runTask has recorded its time
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), 0), 32);
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.tasksExecuted, 36u);
    EXPECT_GT(s.busySeconds, 0.0);
    EXPECT_LE(s.busySeconds, s.threads * wall);
}

TEST(ThreadPool, StatsSeeDrainState)
{
    ThreadPool pool(2);
    pool.drain();
    EXPECT_TRUE(pool.stats().draining);
}

} // namespace
} // namespace wg
