/**
 * @file
 * Job-manager load test (tier 2 — not part of the default ctest run;
 * invoke with `ctest -C tier2` or run the binary directly, ideally on
 * a TSan build: cmake --preset tsan).
 *
 * 1000 jobs are submitted from 8 threads across 4 priorities with
 * heavy dedup (50 unique specs), while dispatch is paused; then the
 * queue is released and the test asserts the three load invariants:
 *
 *   1. jobs START in strict FIFO-within-priority order (startSeq is
 *      exactly the sort by priority desc, submitSeq asc);
 *   2. dedup is fully accounted: unique + deduped == 1000 submissions,
 *      and every duplicate submission resolved to the unique job's id;
 *   3. no results are lost or duplicated: every unique job is Done
 *      with exactly its own cells, and the runner computed each
 *      distinct cell exactly once (single-flight).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "serve/jobs.hh"
#include "serve/wire.hh"

namespace {

using namespace wg;

constexpr std::size_t kSubmissions = 1000;
constexpr std::size_t kUniqueSpecs = 50;
constexpr unsigned kPriorities = 4;
constexpr std::size_t kThreads = 8;

/** Unique spec #i: one bench, one technique, a distinct seed. */
SweepSpec
specFor(std::size_t i)
{
    ExperimentOptions opts;
    opts.numSms = 1;
    opts.seed = 1 + i;
    return SweepSpec({"hotspot"}, {Technique::Gates}, opts);
}

/** Fixed priority per spec, so dedup never promotes (deterministic). */
unsigned
priorityFor(std::size_t spec_index)
{
    return static_cast<unsigned>(spec_index) % kPriorities;
}

TEST(ServeLoad, ThousandJobsFourPrioritiesHeavyDedup)
{
    ExperimentRunner runner(ExperimentOptions{},
                            &ThreadPool::global());
    serve::JobConfig config;
    config.queueCapacity = kSubmissions + 1;
    config.maxConcurrentJobs = 4;
    config.numPriorities = kPriorities;
    serve::JobManager manager(runner, config);
    manager.pauseDispatch();

    // Submission #k maps to spec k % kUniqueSpecs; 8 threads submit
    // concurrently against the paused dispatcher.
    std::mutex mu;
    std::map<std::size_t, std::set<std::string>> ids_by_spec;
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::size_t> dedup_count{0};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t k = t; k < kSubmissions; k += kThreads) {
                const std::size_t spec_index = k % kUniqueSpecs;
                auto outcome = manager.submit(
                    specFor(spec_index), priorityFor(spec_index));
                ASSERT_TRUE(outcome.ok) << outcome.error;
                ++ok_count;
                if (outcome.deduped)
                    ++dedup_count;
                std::lock_guard<std::mutex> lock(mu);
                ids_by_spec[spec_index].insert(outcome.id);
            }
        });
    }
    for (std::thread& t : submitters)
        t.join();

    // Invariant 2a: every submission succeeded; duplicates all
    // resolved to one id per unique spec.
    EXPECT_EQ(ok_count.load(), kSubmissions);
    EXPECT_EQ(dedup_count.load(), kSubmissions - kUniqueSpecs);
    ASSERT_EQ(ids_by_spec.size(), kUniqueSpecs);
    std::set<std::string> unique_ids;
    for (const auto& [spec_index, ids] : ids_by_spec) {
        EXPECT_EQ(ids.size(), 1u)
            << "spec " << spec_index << " got multiple job ids";
        unique_ids.insert(*ids.begin());
    }
    EXPECT_EQ(unique_ids.size(), kUniqueSpecs);

    StatSet gauges;
    manager.publishStats(gauges);
    EXPECT_EQ(gauges.get("serve.jobs.submitted"),
              double(kUniqueSpecs));
    EXPECT_EQ(gauges.get("serve.jobs.deduped"),
              double(kSubmissions - kUniqueSpecs));
    EXPECT_EQ(gauges.get("serve.jobs.rejected"), 0.0);
    EXPECT_EQ(gauges.get("serve.jobs.queued"), double(kUniqueSpecs));

    // Release the queue and let everything finish.
    manager.resumeDispatch();
    manager.drain();

    // Invariant 1: dispatch order is exactly the (priority desc,
    // submitSeq asc) sort of the queued jobs.
    std::vector<serve::JobStatus> jobs = manager.listJobs();
    ASSERT_EQ(jobs.size(), kUniqueSpecs);
    std::vector<serve::JobStatus> by_start = jobs;
    std::sort(by_start.begin(), by_start.end(),
              [](const serve::JobStatus& a, const serve::JobStatus& b) {
                  return a.startSeq < b.startSeq;
              });
    for (std::size_t i = 0; i + 1 < by_start.size(); ++i) {
        const serve::JobStatus& a = by_start[i];
        const serve::JobStatus& b = by_start[i + 1];
        EXPECT_TRUE(a.priority > b.priority ||
                    (a.priority == b.priority &&
                     a.submitSeq < b.submitSeq))
            << "dispatch inversion: (prio " << a.priority << ", sub "
            << a.submitSeq << ") started before (prio " << b.priority
            << ", sub " << b.submitSeq << ")";
    }

    // Invariant 3: every job finished with exactly its own result,
    // none lost, none duplicated.
    for (const serve::JobStatus& s : jobs) {
        EXPECT_EQ(s.state, serve::JobState::Done) << s.id;
        EXPECT_EQ(s.completedCells, 1u) << s.id;
        std::vector<serve::JobCell> cells;
        ExperimentOptions opts_used;
        std::string error;
        ASSERT_TRUE(
            manager.results(s.id, cells, opts_used, error))
            << error;
        ASSERT_EQ(cells.size(), 1u);
        EXPECT_EQ(cells[0].bench, "hotspot");
        ASSERT_NE(cells[0].result, nullptr);
        EXPECT_EQ(cells[0].result->config.numSms, 1u);
    }

    // Single-flight accounting: each distinct cell simulated once.
    CacheStats cache = runner.cacheStats();
    EXPECT_EQ(cache.misses, kUniqueSpecs);

    gauges.clear();
    manager.publishStats(gauges);
    EXPECT_EQ(gauges.get("serve.jobs.completed"),
              double(kUniqueSpecs));
    EXPECT_EQ(gauges.get("serve.jobs.failed"), 0.0);
    EXPECT_EQ(gauges.get("serve.jobs.cancelled"), 0.0);
    EXPECT_EQ(gauges.get("serve.cells.completed"),
              double(kUniqueSpecs));
    EXPECT_EQ(gauges.get("serve.jobs.queued"), 0.0);
    EXPECT_EQ(gauges.get("serve.jobs.running"), 0.0);
}

/**
 * Concurrent watchers under load (the TSan target for the streaming
 * path): several subscribers per job, some subscribing before dispatch
 * and some mid-run or after completion (the replay path), all racing
 * the publisher. Every watcher must observe the identical
 * meta/epoch/final byte stream and a terminal result frame reporting
 * zero drops; the manager must never stall on any of them.
 */
TEST(ServeLoad, ConcurrentWatchersSeeIdenticalCompleteStreams)
{
    constexpr std::size_t kJobs = 12;
    constexpr std::size_t kWatchersPerJob = 4;

    ExperimentRunner runner(ExperimentOptions{},
                            &ThreadPool::global());
    serve::JobConfig config;
    config.queueCapacity = kJobs + 1;
    config.maxConcurrentJobs = 4;
    serve::JobManager manager(runner, config);
    manager.pauseDispatch();

    std::vector<std::string> ids;
    for (std::size_t j = 0; j < kJobs; ++j) {
        auto outcome = manager.submit(specFor(100 + j), 0);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        ids.push_back(outcome.id);
    }

    // streams[j][w]: watcher w's concatenated meta/epoch/final frames.
    std::vector<std::vector<std::string>> streams(
        kJobs, std::vector<std::string>(kWatchersPerJob));
    std::vector<std::thread> watchers;
    for (std::size_t j = 0; j < kJobs; ++j) {
        for (std::size_t w = 0; w < kWatchersPerJob; ++w) {
            watchers.emplace_back([&, j, w] {
                // Odd watchers subscribe late: mid-run or after the
                // job finished, exercising the replay path against
                // live publication.
                if (w % 2 == 1)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5 * w));
                std::string error;
                std::shared_ptr<serve::Subscription> sub =
                    manager.subscribe(ids[j], error);
                ASSERT_NE(sub, nullptr) << error;

                std::string bytes;
                std::string last;
                std::string frame;
                while (!manager.subscriptionDone(*sub)) {
                    while (manager.nextFrame(*sub, frame)) {
                        last = frame;
                        if (frame.find("\"frame\":\"progress\"") ==
                                std::string::npos &&
                            frame.find("\"frame\":\"result\"") ==
                                std::string::npos)
                            bytes += frame + "\n";
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
                EXPECT_NE(last.find("\"frame\":\"result\""),
                          std::string::npos)
                    << last;
                EXPECT_NE(last.find("\"state\":\"done\""),
                          std::string::npos)
                    << last;
                EXPECT_NE(last.find("\"droppedFrames\":0}"),
                          std::string::npos)
                    << last;
                streams[j][w] = bytes;
                manager.unsubscribe(sub);
            });
        }
    }

    manager.resumeDispatch();
    for (std::thread& t : watchers)
        t.join();
    manager.drain();

    for (std::size_t j = 0; j < kJobs; ++j) {
        ASSERT_FALSE(streams[j][0].empty()) << "job " << ids[j];
        for (std::size_t w = 1; w < kWatchersPerJob; ++w)
            EXPECT_EQ(streams[j][w], streams[j][0])
                << "watcher " << w << " of job " << ids[j]
                << " saw a different byte stream";
    }

    StatSet gauges;
    manager.publishStats(gauges);
    EXPECT_EQ(gauges.get("serve.subscriptions.opened"),
              double(kJobs * kWatchersPerJob));
    EXPECT_EQ(gauges.get("serve.subscriptions.active"), 0.0);
}

/** Dedup + cancel interplay under load: a cancelled job's key is
 *  released, so a later identical submission runs fresh. */
TEST(ServeLoad, CancelReleasesDedupKeys)
{
    ExperimentRunner runner(ExperimentOptions{},
                            &ThreadPool::global());
    serve::JobConfig config;
    config.queueCapacity = 64;
    config.numPriorities = kPriorities;
    serve::JobManager manager(runner, config);
    manager.pauseDispatch();

    auto first = manager.submit(specFor(0), 1);
    ASSERT_TRUE(first.ok);
    std::string error;
    ASSERT_TRUE(manager.cancel(first.id, error)) << error;

    auto second = manager.submit(specFor(0), 1);
    ASSERT_TRUE(second.ok);
    EXPECT_FALSE(second.deduped);
    EXPECT_NE(second.id, first.id);

    manager.resumeDispatch();
    manager.drain();
    auto status = manager.status(second.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, serve::JobState::Done);
}

} // namespace
