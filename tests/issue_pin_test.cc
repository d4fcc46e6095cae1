/**
 * @file
 * Pins the issue stage's observable behaviour across the scheduler
 * policies, issue widths and MSHR pool sizes that no preset reaches.
 *
 * Every preset runs at issueWidth 2 and none uses GTO, so the
 * figure-level goldens would not notice a change in how width 1 or 3
 * walks the priority order, how the parity split interacts with
 * rejects, or in which order GTO's greedy warp is probed. Each row of
 * tests/golden/issue_pin_v1.txt hashes, for one configuration, the
 * result document, the JSONL trace (4096-event ring) and the metrics
 * JSONL of a full 2-SM run. Regenerate the table with
 * WG_REGEN_GOLDEN=1 only from code whose issue stage is known good.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <iomanip>
#include <sstream>

#include "common/threadpool.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "sim/gpu.hh"
#include "trace/sink.hh"

namespace wg {
namespace {

/** FNV-1a over @p bytes, as 16 hex digits. */
std::string
digest(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

struct PinCase
{
    const char* bench;
    Technique technique; ///< varies the gating regime per profile
    SchedulerPolicy scheduler;
    unsigned issueWidth;
    unsigned mshrLimit;
    bool fastForward;

    std::string
    key() const
    {
        return std::string(bench) + " " + techniqueName(technique) + " " +
               schedulerPolicyName(scheduler) + " w" +
               std::to_string(issueWidth) + " mshr" +
               std::to_string(mshrLimit) + " ff" +
               (fastForward ? "1" : "0");
    }
};

/** "<key> <result> <trace> <metrics>" for one full traced run. */
std::string
pinRow(const PinCase& c)
{
    GpuConfig config = makeConfig(c.technique);
    config.numSms = 2;
    config.sm.scheduler = c.scheduler;
    config.sm.issueWidth = c.issueWidth;
    config.sm.mem.mshrLimit = c.mshrLimit;
    config.sm.fastForward = c.fastForward;
    trace::RecorderConfig ring;
    ring.capacity = 4096;
    trace::Collector traces(ring);
    metrics::Collector mets;
    const SimResult r =
        Gpu(config).run(findBenchmark(c.bench), nullptr, &traces, &mets);

    std::ostringstream trace_os, metrics_os;
    trace::writeJsonl(trace_os, traces);
    metrics::writeMetrics(metrics_os, &mets, metrics::toStatSet(r),
                          metrics::MetricsFormat::Jsonl);
    return c.key() + " " + digest(toJson(c.bench, r)) + " " +
           digest(trace_os.str()) + " " + digest(metrics_os.str());
}

std::vector<PinCase>
pinMatrix()
{
    // One gating regime per profile: coordinated blackout (bfs),
    // conventional gating with wakeable uncompensated clusters
    // (hotspot), naive blackout (nw), GATES alone (sgemm).
    const std::pair<const char*, Technique> benches[] = {
        {"bfs", Technique::WarpedGates},
        {"hotspot", Technique::ConvPG},
        {"nw", Technique::NaiveBlackout},
        {"sgemm", Technique::Gates}};
    std::vector<PinCase> cases;
    for (const auto& [bench, technique] : benches)
        for (SchedulerPolicy s : {SchedulerPolicy::TwoLevel,
                                  SchedulerPolicy::Gates,
                                  SchedulerPolicy::Gto})
            for (unsigned width : {1u, 2u, 3u})
                for (unsigned mshr : {4u, 32u})
                    for (bool ff : {true, false})
                        cases.push_back(
                            {bench, technique, s, width, mshr, ff});
    return cases;
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(IssuePin, MatrixMatchesTheGolden)
{
    const std::vector<PinCase> cases = pinMatrix();
    ThreadPool& pool = ThreadPool::global();
    std::vector<std::future<std::string>> futures;
    futures.reserve(cases.size());
    for (const PinCase& c : cases)
        futures.push_back(pool.submit([c] { return pinRow(c); }));
    std::string actual;
    for (const std::string& row : pool.waitAll(futures))
        actual += row + "\n";

    const std::string path =
        std::string(WG_GOLDEN_DIR) + "/issue_pin_v1.txt";
    if (std::getenv("WG_REGEN_GOLDEN") != nullptr)
        std::ofstream(path) << actual;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with WG_REGEN_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();

    const std::vector<std::string> want = splitLines(golden.str());
    const std::vector<std::string> got = splitLines(actual);
    ASSERT_EQ(want.size(), got.size()) << path;
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << "row " << i;
}

TEST(IssuePin, FastForwardRowsEqualSteppedRows)
{
    // FF on = off: paired rows differ only in the key's ff flag.
    std::ifstream in(std::string(WG_GOLDEN_DIR) + "/issue_pin_v1.txt");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<std::string> rows = splitLines(text.str());
    ASSERT_EQ(rows.size() % 2, 0u);
    for (std::size_t i = 0; i < rows.size(); i += 2) {
        const std::size_t on = rows[i].find(" ff1 ");
        const std::size_t off = rows[i + 1].find(" ff0 ");
        ASSERT_NE(on, std::string::npos) << rows[i];
        ASSERT_NE(off, std::string::npos) << rows[i + 1];
        EXPECT_EQ(rows[i].substr(0, on), rows[i + 1].substr(0, off));
        EXPECT_EQ(rows[i].substr(on + 5), rows[i + 1].substr(off + 5));
    }
}

} // namespace
} // namespace wg
