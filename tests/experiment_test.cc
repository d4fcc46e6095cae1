/**
 * @file
 * Tests for the experiment runner (caching, filtering, normalisation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/experiment.hh"

namespace wg {
namespace {

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.numSms = 1;
    return opts;
}

TEST(Experiment, CachesResults)
{
    ExperimentRunner runner(fastOpts());
    const SimResult& a = runner.run("NN", Technique::Baseline);
    const SimResult& b = runner.run("NN", Technique::Baseline);
    EXPECT_EQ(&a, &b) << "same key must return the cached object";
}

TEST(Experiment, DistinctKeysDistinctResults)
{
    ExperimentRunner runner(fastOpts());
    const SimResult& a = runner.run("NN", Technique::Baseline);
    const SimResult& b = runner.run("NN", Technique::ConvPG);
    EXPECT_NE(&a, &b);
    ExperimentOptions opts = fastOpts();
    opts.idleDetect = 9;
    const SimResult& c =
        runner.run("NN", Technique::ConvPG, std::optional(opts));
    EXPECT_NE(&b, &c) << "different parameters are different keys";
}

TEST(Experiment, FpBenchmarksExcludeIntegerOnly)
{
    auto fp = ExperimentRunner::fpBenchmarks();
    EXPECT_EQ(std::find(fp.begin(), fp.end(), "lavaMD"), fp.end());
    EXPECT_NE(std::find(fp.begin(), fp.end(), "hotspot"), fp.end());
    EXPECT_NE(std::find(fp.begin(), fp.end(), "bfs"), fp.end())
        << "a sliver of FP activity keeps a benchmark in the FP charts";
    EXPECT_EQ(fp.size(), 17u);
}

TEST(Experiment, RunAllSharesTheCacheWithRun)
{
    ExperimentRunner runner(fastOpts());
    const std::vector<std::string> benches = {"NN", "bfs"};
    const std::vector<Technique> techs = {Technique::Baseline,
                                          Technique::ConvPG};
    auto grid = runner.runAll({benches, techs});
    ASSERT_EQ(grid.size(), 4u);
    // bench-major order, and later run() calls hit the same entries
    for (std::size_t b = 0; b < benches.size(); ++b)
        for (std::size_t t = 0; t < techs.size(); ++t)
            EXPECT_EQ(grid[b * techs.size() + t],
                      &runner.run(benches[b], techs[t]));
}

TEST(Experiment, PrefetchWarmsTheCache)
{
    ExperimentRunner runner(fastOpts());
    runner.prefetch({{"NN"}, {Technique::Baseline}});
    const SimResult& a = runner.run("NN", Technique::Baseline);
    const SimResult& b = runner.run("NN", Technique::Baseline);
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.cycles, 0u);
}

TEST(Experiment, SerialRunnerMatchesPooledRunner)
{
    ExperimentRunner serial(fastOpts(), nullptr);
    ExperimentRunner pooled(fastOpts(), &ThreadPool::global());
    const SimResult& a = serial.run("NN", Technique::WarpedGates);
    const SimResult& b = pooled.run("NN", Technique::WarpedGates);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.aggregate.issuedTotal, b.aggregate.issuedTotal);
    EXPECT_EQ(a.intEnergy.total(), b.intEnergy.total());
}

ExperimentOptions
seedOpts(std::uint64_t seed)
{
    ExperimentOptions opts = fastOpts();
    opts.seed = seed;
    return opts;
}

TEST(Experiment, ConcurrentSameKeyIsSingleFlight)
{
    // Many threads racing on one key must all observe the same cached
    // object (the simulation ran once; everyone else waited).
    ExperimentRunner runner(fastOpts());
    constexpr int kThreads = 8;
    std::vector<const SimResult*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&runner, &seen, i] {
            seen[i] = &runner.run("bfs", Technique::ConvPG);
        });
    for (auto& t : threads)
        t.join();
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(seen[i], seen[0]);
}

TEST(Experiment, EvictionNeverRacesInFlightCompute)
{
    // 8 threads over 4 keys through runShared on the global pool. The
    // cache never evicts, so nothing can pull an entry out from under
    // an in-flight compute: each key simulates exactly once and every
    // other caller is a hit (ASan/TSan make this test bite).
    ExperimentRunner runner(fastOpts(), &ThreadPool::global());
    constexpr int kThreads = 8;
    constexpr int kKeys = 4;
    std::vector<std::shared_ptr<const SimResult>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&runner, &seen, i] {
            seen[i] = runner.runShared("NN", Technique::Baseline,
                                       seedOpts(1 + i % kKeys));
        });
    for (auto& t : threads)
        t.join();

    for (int i = 0; i < kThreads; ++i) {
        ASSERT_NE(seen[i], nullptr) << "thread " << i;
        EXPECT_GT(seen[i]->cycles, 0u);
        EXPECT_EQ(seen[i], seen[i % kKeys])
            << "same key must give the same object";
    }
    CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_EQ(stats.misses, std::uint64_t(kKeys));
    EXPECT_EQ(stats.hits + stats.misses, std::uint64_t(kThreads));
    EXPECT_EQ(stats.entries, std::uint64_t(kKeys));
}

TEST(Experiment, AliasWhileOwnerWaitsCompletes)
{
    // The owner of a key waits on its per-SM jobs in ThreadPool::wait.
    // A second request for the key, queued in that window on a
    // 1-worker pool, must wait for the owner: if the owner's wait()
    // ran it, it would park on the entry above the frame that
    // publishes it, and neither request would ever finish.
    ThreadPool pool(1);
    ExperimentOptions opts = fastOpts();
    opts.numSms = 4;
    ExperimentRunner runner(opts, &pool);
    auto run = [&runner] {
        return &runner.run("hotspot", Technique::WarpedGates);
    };
    auto owner = pool.submit(run);
    // The owner is inside wait() once it runs a per-SM job (two tasks
    // active on one worker) with more of them still queued.
    for (;;) {
        const PoolStats s = pool.stats();
        if (runner.cacheStats().inFlight == 1 && s.active >= 2 &&
            s.queueDepth >= 1)
            break;
        ASSERT_NE(owner.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "the owner finished before the test saw it wait";
        std::this_thread::yield();
    }
    auto alias = pool.submit(run);
    ASSERT_EQ(owner.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    ASSERT_EQ(alias.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    EXPECT_EQ(owner.get(), alias.get());
    const CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(Experiment, ConcurrentDistinctKeysAllComplete)
{
    ExperimentRunner runner(fastOpts());
    auto grid = runner.runAll(
        {{"NN", "bfs", "hotspot"},
         {Technique::Baseline, Technique::ConvPG,
          Technique::WarpedGates}});
    ASSERT_EQ(grid.size(), 9u);
    for (const SimResult* r : grid) {
        ASSERT_NE(r, nullptr);
        EXPECT_GT(r->cycles, 0u);
    }
}

TEST(Experiment, NormalizedRuntime)
{
    SimResult a, b;
    a.cycles = 110;
    b.cycles = 100;
    EXPECT_DOUBLE_EQ(normalizedRuntime(a, b), 1.1);
    EXPECT_DOUBLE_EQ(normalizedRuntime(b, b), 1.0);
    SimResult zero;
    EXPECT_DOUBLE_EQ(normalizedRuntime(a, zero), 0.0);
}

TEST(Experiment, ResultsCarryTheirConfig)
{
    ExperimentRunner runner(fastOpts());
    const SimResult& r = runner.run("NN", Technique::WarpedGates);
    EXPECT_EQ(r.config.sm.pg.policy, PgPolicy::CoordinatedBlackout);
    EXPECT_TRUE(r.config.sm.pg.adaptiveIdleDetect);
    EXPECT_EQ(r.config.numSms, 1u);
}

TEST(Experiment, SweepSpecOptionsSelectDistinctKeys)
{
    // A sweep carrying explicit options must land in different cache
    // entries than the runner-default sweep, and the same entries a
    // later run() with those options reads.
    ExperimentRunner runner(fastOpts());
    ExperimentOptions opts = fastOpts();
    opts.breakEven = 20;
    auto with = runner.runAll({{"NN"}, {Technique::ConvPG}, opts});
    auto without = runner.runAll({{"NN"}, {Technique::ConvPG}});
    ASSERT_EQ(with.size(), 1u);
    ASSERT_EQ(without.size(), 1u);
    EXPECT_NE(with[0], without[0]);
    EXPECT_EQ(with[0],
              &runner.run("NN", Technique::ConvPG, std::optional(opts)));
    EXPECT_EQ(without[0], &runner.run("NN", Technique::ConvPG));
}

/** A result no simulation produces, so a hit on it proves seeding. */
SimResult
markedResult()
{
    SimResult r;
    r.cycles = 424242;
    r.aggregate.completed = true;
    return r;
}

TEST(Experiment, SeededKeyIsServedAsAHit)
{
    ExperimentRunner runner(fastOpts(), nullptr);
    EXPECT_TRUE(runner.seedCache("NN", Technique::Baseline, seedOpts(5),
                                 markedResult()));
    CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 0u);

    auto a = runner.runShared("NN", Technique::Baseline, seedOpts(5));
    const SimResult& b =
        runner.run("NN", Technique::Baseline, seedOpts(5));
    EXPECT_EQ(a->cycles, 424242u) << "the seeded object, not a recompute";
    EXPECT_EQ(&b, a.get());
    stats = runner.cacheStats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Experiment, SeedingAPresentKeyKeepsTheExistingEntry)
{
    ExperimentRunner runner(fastOpts(), nullptr);
    const SimResult& computed =
        runner.run("NN", Technique::Baseline, seedOpts(5));
    const std::uint64_t cycles = computed.cycles;
    ASSERT_NE(cycles, 424242u);

    EXPECT_FALSE(runner.seedCache("NN", Technique::Baseline, seedOpts(5),
                                  markedResult()));
    const SimResult& again =
        runner.run("NN", Technique::Baseline, seedOpts(5));
    EXPECT_EQ(&again, &computed);
    EXPECT_EQ(again.cycles, cycles);
    CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Experiment, PlainOptionsConvertToSweepApi)
{
    // With the deprecated pre-SweepSpec wrappers gone, passing a bare
    // ExperimentOptions must keep compiling via the implicit
    // std::optional conversion and hit the same cache slots.
    ExperimentRunner runner(fastOpts());
    ExperimentOptions opts = fastOpts();
    opts.idleDetect = 7;
    auto with = runner.runAll({{"NN"}, {Technique::ConvPG}, opts});
    ASSERT_EQ(with.size(), 1u);
    EXPECT_EQ(with[0], &runner.run("NN", Technique::ConvPG, opts));
    EXPECT_NE(with[0], &runner.run("NN", Technique::ConvPG));
}

} // namespace
} // namespace wg
