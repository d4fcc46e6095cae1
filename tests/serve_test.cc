/**
 * @file
 * End-to-end serving tests, in-process over real loopback sockets:
 * submit/status/result/cancel/stats/drain, the OpenMetrics endpoint,
 * protocol robustness against garbage, and the served-equals-offline
 * byte-identity contract.
 */

#include <chrono>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "serve/client.hh"
#include "serve/jobs.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "serve/wire.hh"

namespace {

using namespace wg;

ExperimentOptions
tinyOptions()
{
    ExperimentOptions opts;
    opts.numSms = 2;
    opts.seed = 3;
    return opts;
}

/** A running server + connected client, torn down via drain. */
class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        runner_ = std::make_unique<ExperimentRunner>(
            ExperimentOptions{}, &ThreadPool::global());
        serve::ServerConfig config;
        config.pollTickMs = 20;
        config.jobs.queueCapacity = 8;
        server_ =
            std::make_unique<serve::Server>(*runner_, config);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
        serve_thread_ = std::thread([this] {
            std::string serve_error;
            EXPECT_TRUE(server_->serve(-1, serve_error))
                << serve_error;
        });
        ASSERT_TRUE(client_.connect(server_->port(), 2000, error))
            << error;
    }

    void TearDown() override
    {
        std::string error;
        if (client_.connected()) {
            EXPECT_TRUE(client_.drain(60000, error)) << error;
        }
        serve_thread_.join();
    }

    std::unique_ptr<ExperimentRunner> runner_;
    std::unique_ptr<serve::Server> server_;
    std::thread serve_thread_;
    serve::Client client_;
};

TEST_F(ServeTest, SubmitRunsAndResultsMatchOfflineExactly)
{
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    EXPECT_FALSE(deduped);

    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error))
        << error;
    ASSERT_EQ(status.state, serve::JobState::Done);
    EXPECT_EQ(status.completedCells, 1u);
    EXPECT_EQ(status.totalCells, 1u);

    std::vector<serve::wire::ResultCell> cells;
    ASSERT_TRUE(client_.results(id, cells, error)) << error;
    ASSERT_EQ(cells.size(), 1u);

    // Served result == offline result, to the last bit: registry,
    // CSV row, JSON export, and the human summary.
    ExperimentRunner offline(tinyOptions(), nullptr);
    const SimResult& direct =
        offline.run("hotspot", Technique::WarpedGates);
    EXPECT_EQ(metrics::toStatSet(cells[0].result).entries(),
              metrics::toStatSet(direct).entries());
    EXPECT_EQ(toCsvRow("hotspot", cells[0].result),
              toCsvRow("hotspot", direct));
    EXPECT_EQ(toJson("hotspot", cells[0].result),
              toJson("hotspot", direct));
    std::ostringstream served_summary;
    std::ostringstream offline_summary;
    printSummary(served_summary, "hotspot", cells[0].result);
    printSummary(offline_summary, "hotspot", direct);
    EXPECT_EQ(served_summary.str(), offline_summary.str());
}

TEST_F(ServeTest, DuplicateSubmissionsFoldIntoOneJob)
{
    SweepSpec spec({"hotspot"}, {Technique::Baseline}, tinyOptions());
    std::string id1;
    std::string id2;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id1, deduped, error)) << error;
    EXPECT_FALSE(deduped);
    ASSERT_TRUE(client_.submit(spec, 0, id2, deduped, error)) << error;
    EXPECT_TRUE(deduped);
    EXPECT_EQ(id1, id2);

    std::map<std::string, double> stats;
    ASSERT_TRUE(client_.stats(stats, error)) << error;
    EXPECT_EQ(stats["serve.jobs.deduped"], 1.0);
    EXPECT_EQ(stats["serve.jobs.submitted"], 1.0);

    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id1, 20, 120000, status, error));
}

TEST_F(ServeTest, InvalidSubmissionsAreRejectedNotFatal)
{
    std::string id;
    std::string error;
    bool deduped = false;
    SweepSpec unknown_bench({"no-such-bench"}, {Technique::Baseline},
                            tinyOptions());
    EXPECT_FALSE(
        client_.submit(unknown_bench, 0, id, deduped, error));
    EXPECT_NE(error.find("unknown benchmark"), std::string::npos)
        << error;

    SweepSpec bad_priority({"hotspot"}, {Technique::Baseline},
                           tinyOptions());
    EXPECT_FALSE(
        client_.submit(bad_priority, 99, id, deduped, error));
    EXPECT_NE(error.find("priority"), std::string::npos) << error;

    // The daemon is still healthy afterwards.
    ASSERT_TRUE(client_.submit(bad_priority, 0, id, deduped, error))
        << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));
    EXPECT_EQ(status.state, serve::JobState::Done);
}

TEST_F(ServeTest, ProtocolSurvivesGarbageLines)
{
    serve::Fd raw;
    std::string error;
    raw = serve::connectTcp(server_->port(), 2000, error);
    ASSERT_TRUE(raw.valid()) << error;
    serve::LineReader reader(raw.get());

    auto exchange = [&](const std::string& request) {
        EXPECT_TRUE(serve::sendAll(raw.get(), request + "\n", error))
            << error;
        std::string line;
        EXPECT_EQ(reader.readLine(line, 10000, error),
                  serve::LineReader::Status::Line)
            << error;
        return line;
    };

    EXPECT_NE(exchange("this is not json").find("\"ok\":false"),
              std::string::npos);
    EXPECT_NE(exchange("{\"wire\":1}").find("missing string 'type'"),
              std::string::npos);
    EXPECT_NE(exchange("{\"wire\":99,\"type\":\"stats\"}")
                  .find("unsupported wire version 99"),
              std::string::npos);
    EXPECT_NE(exchange("{\"wire\":1,\"type\":\"frobnicate\"}")
                  .find("unknown request type"),
              std::string::npos);
    EXPECT_NE(exchange("{\"wire\":1,\"type\":\"cancel\",\"id\":\"j9\"}")
                  .find("unknown job"),
              std::string::npos);
    // After all that abuse the same connection still serves real
    // requests.
    EXPECT_NE(exchange("{\"wire\":1,\"type\":\"stats\"}")
                  .find("\"ok\":true"),
              std::string::npos);
}

TEST_F(ServeTest, ResultsForUnfinishedJobAreAnError)
{
    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"}, {Technique::ConvPG}, tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    std::vector<serve::wire::ResultCell> cells;
    EXPECT_FALSE(client_.results(id, cells, error));
    EXPECT_NE(error.find("results require state done"),
              std::string::npos)
        << error;
    server_->jobs().resumeDispatch();
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));
}

TEST_F(ServeTest, QueuedJobCancelsImmediately)
{
    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"}, {Technique::NaiveBlackout},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    ASSERT_TRUE(client_.cancel(id, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.status(id, status, error)) << error;
    EXPECT_EQ(status.state, serve::JobState::Cancelled);
    // Cancelling a finished job is a clean error.
    EXPECT_FALSE(client_.cancel(id, error));
    EXPECT_NE(error.find("already finished"), std::string::npos);
    // A resubmission after cancellation gets a fresh job, not the
    // cancelled one.
    server_->jobs().resumeDispatch();
    std::string id2;
    ASSERT_TRUE(client_.submit(spec, 0, id2, deduped, error)) << error;
    EXPECT_FALSE(deduped);
    EXPECT_NE(id2, id);
    ASSERT_TRUE(client_.waitForJob(id2, 20, 120000, status, error));
    EXPECT_EQ(status.state, serve::JobState::Done);
}

TEST_F(ServeTest, MetricsEndpointSpeaksOpenMetrics)
{
    // Prime one job so the gauges are nonzero.
    SweepSpec spec({"hotspot"}, {Technique::Baseline}, tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));

    serve::Fd raw = serve::connectTcp(server_->port(), 2000, error);
    ASSERT_TRUE(raw.valid()) << error;
    ASSERT_TRUE(serve::sendAll(
        raw.get(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", error));
    serve::LineReader reader(raw.get());
    std::string body;
    std::string line;
    for (;;) {
        serve::LineReader::Status st =
            reader.readLine(line, 10000, error);
        if (st != serve::LineReader::Status::Line)
            break;
        body += line + "\n";
    }
    EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(body.find("application/openmetrics-text"),
              std::string::npos);
    EXPECT_NE(body.find("wg_serve_jobs_completed 1"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("# EOF"), std::string::npos);
}

TEST_F(ServeTest, HttpForUnknownPathIs404)
{
    std::string error;
    serve::Fd raw = serve::connectTcp(server_->port(), 2000, error);
    ASSERT_TRUE(raw.valid()) << error;
    ASSERT_TRUE(serve::sendAll(
        raw.get(), "GET /nope HTTP/1.1\r\n\r\n", error));
    serve::LineReader reader(raw.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, 10000, error),
              serve::LineReader::Status::Line)
        << error;
    EXPECT_NE(line.find("404"), std::string::npos);
}

TEST_F(ServeTest, DrainFinishesQueuedWorkThenRejects)
{
    SweepSpec spec({"hotspot"},
                   {Technique::Baseline, Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    ASSERT_TRUE(client_.drain(120000, error)) << error;
    serve_thread_.join();
    serve_thread_ = std::thread([] {}); // TearDown joins once more

    // Drain completed the job before shutting down.
    EXPECT_TRUE(server_->jobs().draining());
    std::vector<serve::JobCell> cells;
    ExperimentOptions opts_used;
    ASSERT_TRUE(server_->jobs().results(id, cells, opts_used, error))
        << error;
    EXPECT_EQ(cells.size(), 2u);

    // Post-drain submissions are rejected, not queued.
    auto outcome = server_->jobs().submit(spec, 0);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("draining"), std::string::npos);
    client_ = serve::Client(); // connection is gone; skip TearDown drain
}

/**
 * Client::stats against a stand-in daemon that answers one stats
 * request with a non-numeric gauge: the client rejects the response
 * with the gauge's dotted path.
 */
TEST(ServeClient, NonNumericStatIsAnErrorWithItsPath)
{
    std::string error;
    std::uint16_t port = 0;
    serve::Fd listener = serve::listenTcp(0, port, error);
    ASSERT_TRUE(listener.valid()) << error;

    std::thread daemon([&listener] {
        std::string err;
        serve::Fd conn = serve::acceptConn(listener.get(), 10000, err);
        if (!conn.valid())
            return;
        serve::LineReader reader(conn.get());
        std::string line;
        if (reader.readLine(line, 10000, err) !=
            serve::LineReader::Status::Line)
            return;
        serve::sendAll(conn.get(),
                       "{\"wire\":" +
                           std::to_string(serve::wire::kSchemaVersion) +
                           ",\"type\":\"response\",\"request\":"
                           "\"stats\",\"ok\":true,\"stats\":"
                           "{\"serve.jobs\":1,\"serve.state\":\"up\"}}\n",
                       err);
    });

    serve::Client client;
    ASSERT_TRUE(client.connect(port, 2000, error)) << error;
    std::map<std::string, double> stats;
    EXPECT_FALSE(client.stats(stats, error));
    EXPECT_EQ(error, "$.stats.serve.state: expected a number");
    daemon.join();
}

TEST(ServeAdmission, OversizedSmCountIsRejected)
{
    // Admission only: the spec is refused before any cell is queued,
    // so nothing of that size is ever simulated.
    ExperimentRunner runner(tinyOptions(), nullptr);
    serve::JobManager jobs(runner);
    ExperimentOptions huge = tinyOptions();
    huge.numSms = GpuConfig::kMaxSms + 1;
    const auto outcome = jobs.submit(
        SweepSpec({"hotspot"}, {Technique::Baseline}, huge), 0);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("numSms must be <= 1024"),
              std::string::npos)
        << outcome.error;
    EXPECT_EQ(runner.cacheStats().entries, 0u);
}

// ---------------------------------------------------------------------
// Resume seeding (manager-level, no sockets)
// ---------------------------------------------------------------------

/** Block until job @p id leaves the queue and finishes. */
serve::JobState
waitTerminal(const serve::JobManager& jobs, const std::string& id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        auto status = jobs.status(id);
        if (!status)
            return serve::JobState::Failed;
        if (status->state != serve::JobState::Queued &&
            status->state != serve::JobState::Running)
            return status->state;
        if (std::chrono::steady_clock::now() > deadline)
            return status->state;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** The job's cells as result documents, the way a checkpoint writes. */
std::vector<std::string>
resultDocs(const serve::JobManager& jobs, const std::string& id)
{
    std::vector<serve::JobCell> cells;
    ExperimentOptions optsUsed;
    std::string error;
    EXPECT_TRUE(jobs.results(id, cells, optsUsed, error)) << error;
    std::vector<std::string> docs;
    for (const serve::JobCell& cell : cells)
        docs.push_back(serve::wire::resultDoc(cell.bench, cell.technique,
                                              optsUsed, *cell.result)
                           .dump());
    return docs;
}

TEST(ServeResume, SeedCellsSkipsUnknownBenchmarks)
{
    ExperimentRunner runner(tinyOptions(), nullptr);
    serve::JobManager jobs(runner);
    serve::wire::ResultCell known;
    known.bench = "hotspot";
    known.options = tinyOptions();
    known.result.aggregate.completed = true;
    serve::wire::ResultCell unknown = known;
    unknown.bench = "no-such-bench";

    EXPECT_EQ(jobs.seedCells({unknown, known}), 1u);
    EXPECT_EQ(runner.cacheStats().entries, 1u)
        << "the unknown benchmark never reached the cache";
    EXPECT_EQ(jobs.seedCells({known}), 0u) << "already cached";
}

TEST(ServeResume, JobOverSeededCellsRecomputesNothing)
{
    const SweepSpec spec({"hotspot", "bfs"},
                         {Technique::Baseline, Technique::WarpedGates},
                         tinyOptions());

    // A fresh compute, checkpointed to documents.
    ExperimentRunner first(tinyOptions(), &ThreadPool::global());
    std::vector<std::string> freshDocs;
    {
        serve::JobManager jobs(first);
        auto outcome = jobs.submit(spec, 0);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        ASSERT_EQ(waitTerminal(jobs, outcome.id), serve::JobState::Done);
        freshDocs = resultDocs(jobs, outcome.id);
    }
    ASSERT_EQ(freshDocs.size(), 4u);
    EXPECT_EQ(first.cacheStats().misses, 4u);

    // Resume on a new runner: seed from the parsed documents, rerun.
    std::vector<serve::wire::ResultCell> cells;
    for (const std::string& text : freshDocs) {
        Json doc;
        std::string error;
        ASSERT_TRUE(Json::parse(text, doc, error)) << error;
        serve::wire::ResultCell cell;
        ASSERT_TRUE(serve::wire::parseResultDoc(doc, cell, error))
            << error;
        cells.push_back(std::move(cell));
    }
    ExperimentRunner second(tinyOptions(), &ThreadPool::global());
    serve::JobManager jobs(second);
    EXPECT_EQ(jobs.seedCells(cells), 4u);
    auto outcome = jobs.submit(spec, 0);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_EQ(waitTerminal(jobs, outcome.id), serve::JobState::Done);

    CacheStats stats = second.cacheStats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(resultDocs(jobs, outcome.id), freshDocs)
        << "seeded cells must serialize byte-identically";
}

} // namespace
