/**
 * @file
 * Live-telemetry tests: job frame streams (subscribe/unsubscribe over
 * real loopback sockets), the streamed-equals-offline byte-identity
 * contract, slow and late readers, latency histograms, gauge
 * catalogue coverage, and the structured event log.
 */

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "serve/client.hh"
#include "serve/eventlog.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "sim/gpu.hh"

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

/**
 * The offline reference: the exact bytes `wgsim --metrics` writes for
 * the same (bench, technique, options) cell.
 */
std::string
offlineJsonl(const std::string& bench, Technique t)
{
    Gpu gpu(makeConfig(t, tinyOptions()));
    metrics::Collector collector;
    SimResult result =
        gpu.run(findBenchmark(bench), nullptr, nullptr, &collector);
    std::ostringstream os;
    metrics::writeMetricsJsonl(os, &collector,
                               metrics::toStatSet(result));
    return os.str();
}

/** A running server + connected client, torn down via drain. */
class ServeStreamTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        runner_ = std::make_unique<ExperimentRunner>(
            ExperimentOptions{}, &ThreadPool::global());
        serve::ServerConfig config;
        config.pollTickMs = 20;
        server_ = std::make_unique<serve::Server>(*runner_, config);
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

    /**
     * Read frames until the terminal result frame, concatenating the
     * data bytes of meta/epoch/final frames into a jsonl document.
     */
    void
    collectStream(serve::Client& client, std::string& jsonl,
                  serve::Frame& result)
    {
        jsonl.clear();
        serve::Frame frame;
        for (;;) {
            std::string error;
            ASSERT_TRUE(client.nextFrame(frame, 120000, error))
                << error;
            if (frame.kind == serve::FrameKind::Meta ||
                frame.kind == serve::FrameKind::Epoch ||
                frame.kind == serve::FrameKind::Final) {
                jsonl += frame.data;
                jsonl += '\n';
            }
            if (frame.kind == serve::FrameKind::Result) {
                result = frame;
                return;
            }
        }
    }

    std::unique_ptr<ExperimentRunner> runner_;
    std::unique_ptr<serve::Server> server_;
    std::thread serve_thread_;
    serve::Client client_;
};

TEST_F(ServeStreamTest, StreamedSeriesIsByteIdenticalToOfflineExport)
{
    // Subscribe while the job is still queued, so every frame flows
    // through the live path (no replay).
    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    ASSERT_TRUE(client_.subscribe(id, error)) << error;
    server_->jobs().resumeDispatch();

    std::string streamed;
    serve::Frame result;
    collectStream(client_, streamed, result);
    EXPECT_EQ(result.state, "done");
    EXPECT_EQ(result.droppedFrames, 0u);

    EXPECT_EQ(streamed, offlineJsonl("hotspot", Technique::WarpedGates));
}

TEST_F(ServeStreamTest, LateSubscriberReplaysTheIdenticalByteStream)
{
    SweepSpec spec({"hotspot"}, {Technique::Gates}, tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error))
        << error;
    ASSERT_EQ(status.state, serve::JobState::Done);

    // The job is long finished; a fresh subscriber gets the whole
    // frame log replayed and an immediate terminal frame.
    ASSERT_TRUE(client_.subscribe(id, error)) << error;
    std::string replayed;
    serve::Frame result;
    collectStream(client_, replayed, result);
    EXPECT_EQ(result.state, "done");
    EXPECT_EQ(replayed, offlineJsonl("hotspot", Technique::Gates));
}

TEST_F(ServeStreamTest, StreamOrdersMetaEpochsFinalPerCell)
{
    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"},
                   {Technique::Baseline, Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    ASSERT_TRUE(client_.subscribe(id, error)) << error;
    server_->jobs().resumeDispatch();

    // Per cell: exactly one meta (carrying bench/technique), epoch
    // frames, then one final; progress frames interleave between
    // cells; one terminal result ends the stream.
    std::size_t metas = 0;
    std::size_t finals = 0;
    std::size_t lastCell = 0;
    bool sawResult = false;
    serve::Frame frame;
    while (!sawResult) {
        ASSERT_TRUE(client_.nextFrame(frame, 120000, error)) << error;
        switch (frame.kind) {
          case serve::FrameKind::Meta:
            EXPECT_EQ(frame.cell, metas);
            EXPECT_EQ(frame.bench, "hotspot");
            ++metas;
            break;
          case serve::FrameKind::Epoch:
            EXPECT_EQ(metas, frame.cell + 1)
                << "epoch frame outside its cell's meta/final bracket";
            break;
          case serve::FrameKind::Final:
            EXPECT_EQ(frame.cell, finals);
            ++finals;
            lastCell = frame.cell;
            break;
          case serve::FrameKind::Progress:
            EXPECT_EQ(frame.totalCells, 2u);
            break;
          case serve::FrameKind::Result:
            sawResult = true;
            break;
        }
    }
    EXPECT_EQ(metas, 2u);
    EXPECT_EQ(finals, 2u);
    EXPECT_EQ(lastCell, 1u);
    EXPECT_EQ(frame.state, "done");
}

TEST_F(ServeStreamTest, SubscribeUnknownJobIsCleanError)
{
    std::string error;
    EXPECT_FALSE(client_.subscribe("j999", error));
    EXPECT_NE(error.find("unknown job"), std::string::npos) << error;
    // The connection still works afterwards.
    std::map<std::string, double> stats;
    EXPECT_TRUE(client_.stats(stats, error)) << error;
}

TEST_F(ServeStreamTest, DoubleSubscribeAndBareUnsubscribeAreErrors)
{
    // Raw socket: exercise the server-side guards directly.
    std::string error;
    serve::Fd raw = serve::connectTcp(server_->port(), 2000, error);
    ASSERT_TRUE(raw.valid()) << error;
    serve::LineReader reader(raw.get());
    auto exchange = [&](const std::string& request) {
        EXPECT_TRUE(serve::sendAll(raw.get(), request + "\n", error))
            << error;
        // While subscribed, pushed frames interleave with responses;
        // skip them (the real client does the same on unsubscribe).
        std::string line;
        do {
            EXPECT_EQ(reader.readLine(line, 10000, error),
                      serve::LineReader::Status::Line)
                << error;
        } while (line.find("\"type\":\"frame\"") != std::string::npos);
        return line;
    };
    EXPECT_NE(exchange("{\"wire\":1,\"type\":\"unsubscribe\"}")
                  .find("no subscription"),
              std::string::npos);
    EXPECT_NE(exchange("{\"wire\":1,\"type\":\"subscribe\"}")
                  .find("non-empty string 'id'"),
              std::string::npos);

    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"}, {Technique::ConvPG}, tinyOptions());
    std::string id;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    const std::string sub = "{\"wire\":1,\"type\":\"subscribe\",\"id\":\"" +
                            id + "\"}";
    EXPECT_NE(exchange(sub).find("\"ok\":true"), std::string::npos);
    EXPECT_NE(exchange(sub).find("already subscribed"),
              std::string::npos);
    server_->jobs().resumeDispatch();
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));
}

TEST_F(ServeStreamTest, UnsubscribeMidStreamLeavesConnectionUsable)
{
    server_->jobs().pauseDispatch();
    SweepSpec spec({"hotspot"},
                   {Technique::Baseline, Technique::NaiveBlackout},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    ASSERT_TRUE(client_.subscribe(id, error)) << error;
    server_->jobs().resumeDispatch();
    ASSERT_TRUE(client_.unsubscribe(error)) << error;
    EXPECT_FALSE(client_.subscribed());

    // The same connection keeps serving ordinary requests, and the
    // job runs to completion unaffected.
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error))
        << error;
    EXPECT_EQ(status.state, serve::JobState::Done);
    std::map<std::string, double> stats;
    ASSERT_TRUE(client_.stats(stats, error)) << error;
    EXPECT_GE(stats["serve.subscriptions.opened"], 1.0);
}

TEST_F(ServeStreamTest, StatsPublishSubscriptionAndPoolGauges)
{
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));

    std::map<std::string, double> stats;
    ASSERT_TRUE(client_.stats(stats, error)) << error;
    EXPECT_EQ(stats.count("serve.subscriptions.opened"), 1u);
    EXPECT_EQ(stats.count("serve.subscriptions.active"), 1u);
    // Exactly these pool gauges: the FIFO pool has no steal counter.
    std::vector<std::string> pool_gauges;
    for (const auto& gauge : stats)
        if (gauge.first.rfind("pool.", 0) == 0)
            pool_gauges.push_back(gauge.first);
    EXPECT_EQ(pool_gauges,
              (std::vector<std::string>{"pool.active", "pool.busySeconds",
                                        "pool.draining", "pool.queueDepth",
                                        "pool.tasksExecuted",
                                        "pool.threads"}));
    EXPECT_GE(stats["pool.tasksExecuted"], 1.0);
    // One finished job: every latency histogram saw one record.
    EXPECT_EQ(stats["serve.latency.admissionWait.count"], 1.0);
    EXPECT_EQ(stats["serve.latency.runDuration.count"], 1.0);
    EXPECT_EQ(stats["serve.latency.endToEnd.count"], 1.0);
    EXPECT_GE(stats["serve.latency.endToEnd.sumSeconds"],
              stats["serve.latency.runDuration.sumSeconds"]);
}

TEST_F(ServeStreamTest, MetricsEndpointExposesLatencyHistograms)
{
    SweepSpec spec({"hotspot"}, {Technique::Baseline}, tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));

    const std::string body = server_->promExposition();
    for (const char* family :
         {"wg_serve_latency_admissionWait_seconds",
          "wg_serve_latency_runDuration_seconds",
          "wg_serve_latency_endToEnd_seconds"}) {
        EXPECT_NE(body.find(std::string("# TYPE ") + family +
                            " histogram"),
                  std::string::npos)
            << family;
        EXPECT_NE(body.find(std::string(family) +
                            "_bucket{le=\"+Inf\"} 1"),
                  std::string::npos)
            << family;
        EXPECT_NE(body.find(std::string(family) + "_count 1"),
                  std::string::npos)
            << family;
    }
    // Gauges carry # HELP/# TYPE too, and the exposition terminates.
    EXPECT_NE(body.find("# HELP wg_serve_jobs_completed "),
              std::string::npos);
    EXPECT_NE(body.find("# EOF\n"), std::string::npos);
}

TEST_F(ServeStreamTest, EveryPublishedGaugeHasCataloguedHelp)
{
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   tinyOptions());
    std::string id;
    std::string error;
    bool deduped = false;
    ASSERT_TRUE(client_.submit(spec, 0, id, deduped, error)) << error;
    serve::JobStatus status;
    ASSERT_TRUE(client_.waitForJob(id, 20, 120000, status, error));

    StatSet set;
    server_->jobs().publishStats(set);
    for (const auto& [name, value] : set.entries()) {
        (void)value;
        EXPECT_TRUE(metrics::metricHelpKnown(name))
            << "gauge '" << name << "' has no # HELP catalogue entry";
    }
}

// ---------------------------------------------------------------------
// Subscription cursors (manager-level, no sockets)
// ---------------------------------------------------------------------

/** Frames of one subscription, split into data and stream control. */
struct DrainedStream
{
    std::string data; ///< meta/epoch/final frames, one per line
    std::vector<std::string> kinds; ///< every frame's kind, in order
    std::string last; ///< the final frame delivered
};

std::string
frameKind(const std::string& frame)
{
    const std::string key = "\"frame\":\"";
    const std::size_t at = frame.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + key.size();
    return frame.substr(from, frame.find('"', from) - from);
}

/** Pull every frame @p sub has now; true once the stream ended. */
bool
drainAvailable(serve::JobManager& jobs, serve::Subscription& sub,
               DrainedStream& out)
{
    std::string frame;
    while (jobs.nextFrame(sub, frame)) {
        const std::string kind = frameKind(frame);
        out.kinds.push_back(kind);
        if (kind == "meta" || kind == "epoch" || kind == "final")
            out.data += frame + "\n";
        out.last = frame;
    }
    return jobs.subscriptionDone(sub);
}

TEST(ServeBackpressure, SlowConsumerGetsTheFullStreamAfterTheJobFinishes)
{
    ExperimentRunner runner(tinyOptions(), &ThreadPool::global());
    serve::JobManager jobs(runner);

    jobs.pauseDispatch();
    SweepSpec spec({"hotspot"},
                   {Technique::Baseline, Technique::WarpedGates},
                   tinyOptions());
    auto outcome = jobs.submit(spec, 0);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    std::string error;
    std::shared_ptr<serve::Subscription> slow =
        jobs.subscribe(outcome.id, error);
    ASSERT_NE(slow, nullptr) << error;
    std::shared_ptr<serve::Subscription> prompt =
        jobs.subscribe(outcome.id, error);
    ASSERT_NE(prompt, nullptr) << error;

    DrainedStream promptStream;
    std::thread promptReader([&] {
        while (!drainAvailable(jobs, *prompt, promptStream))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    jobs.resumeDispatch();

    // The slow subscriber reads nothing until the job is done: the
    // publisher never waits on a reader.
    for (;;) {
        auto status = jobs.status(outcome.id);
        ASSERT_TRUE(status.has_value());
        if (status->state == serve::JobState::Done)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    promptReader.join();

    DrainedStream slowStream;
    ASSERT_TRUE(drainAvailable(jobs, *slow, slowStream));

    // Subscribed before any cell: progress, both cells in order, one
    // progress on catching up, then the terminal result with no drops.
    ASSERT_GE(slowStream.kinds.size(), 8u);
    EXPECT_EQ(slowStream.kinds.front(), "progress");
    std::vector<std::string> cellKinds;
    for (std::size_t i = 1; i + 2 < slowStream.kinds.size(); ++i)
        if (slowStream.kinds[i] != "epoch")
            cellKinds.push_back(slowStream.kinds[i]);
    EXPECT_EQ(cellKinds, (std::vector<std::string>{"meta", "final",
                                                   "meta", "final"}));
    EXPECT_EQ(slowStream.kinds[slowStream.kinds.size() - 2],
              "progress");
    EXPECT_EQ(slowStream.kinds.back(), "result");
    EXPECT_NE(slowStream.last.find("\"state\":\"done\""),
              std::string::npos)
        << slowStream.last;
    EXPECT_NE(slowStream.last.find("\"droppedFrames\":0}"),
              std::string::npos)
        << slowStream.last;

    // Same meta/epoch/final bytes as the subscriber that kept up.
    EXPECT_EQ(promptStream.kinds.back(), "result");
    EXPECT_EQ(slowStream.data, promptStream.data);
    jobs.unsubscribe(slow);
    jobs.unsubscribe(prompt);
}

TEST(ServeCursor, CancelledQueuedJobEndsItsStream)
{
    ExperimentRunner runner(tinyOptions(), &ThreadPool::global());
    serve::JobManager jobs(runner);

    jobs.pauseDispatch();
    SweepSpec spec({"hotspot"}, {Technique::Baseline}, tinyOptions());
    auto outcome = jobs.submit(spec, 0);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    std::string error;
    std::shared_ptr<serve::Subscription> sub =
        jobs.subscribe(outcome.id, error);
    ASSERT_NE(sub, nullptr) << error;
    ASSERT_TRUE(jobs.cancel(outcome.id, error)) << error;

    // No cell ever ran: the cursor's subscribe-time progress frame,
    // then the terminal result, with no further frames.
    DrainedStream stream;
    ASSERT_TRUE(drainAvailable(jobs, *sub, stream));
    EXPECT_EQ(stream.kinds,
              (std::vector<std::string>{"progress", "result"}));
    EXPECT_NE(stream.last.find("\"state\":\"cancelled\""),
              std::string::npos)
        << stream.last;
    std::string frame;
    EXPECT_FALSE(jobs.nextFrame(*sub, frame));
    jobs.unsubscribe(sub);
    jobs.resumeDispatch();
}

// ---------------------------------------------------------------------
// Event log (injected clock)
// ---------------------------------------------------------------------

std::vector<std::string>
fileLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(EventLog, FiltersBelowThresholdAndCounts)
{
    const std::string path =
        ::testing::TempDir() + "/eventlog_filter.jsonl";
    std::remove(path.c_str());
    serve::EventLog log;
    serve::EventLog::Options opts;
    opts.level = serve::EventLog::Level::Warn;
    opts.clockMs = [] { return std::uint64_t(0); };
    std::string error;
    ASSERT_TRUE(log.open(path, opts, error)) << error;

    log.log(serve::EventLog::Level::Debug, "ignored");
    log.log(serve::EventLog::Level::Info, "ignored");
    log.log(serve::EventLog::Level::Warn, "kept");
    log.log(serve::EventLog::Level::Error, "kept");

    serve::EventLog::Counters c = log.counters();
    EXPECT_EQ(c.written, 2u);
    EXPECT_EQ(c.filtered, 2u);
    EXPECT_EQ(c.rateLimited, 0u);
    EXPECT_EQ(fileLines(path).size(), 2u);
}

TEST(EventLog, RateLimitsPerSecondWindow)
{
    const std::string path =
        ::testing::TempDir() + "/eventlog_rate.jsonl";
    std::remove(path.c_str());
    std::uint64_t now = 0;
    serve::EventLog log;
    serve::EventLog::Options opts;
    opts.maxPerSecond = 2;
    opts.clockMs = [&now] { return now; };
    std::string error;
    ASSERT_TRUE(log.open(path, opts, error)) << error;

    log.log(serve::EventLog::Level::Info, "a");
    log.log(serve::EventLog::Level::Info, "b");
    log.log(serve::EventLog::Level::Info, "overBudget");
    EXPECT_EQ(log.counters().rateLimited, 1u);

    now += 1000; // next window: the budget resets
    log.log(serve::EventLog::Level::Info, "c");
    serve::EventLog::Counters c = log.counters();
    EXPECT_EQ(c.written, 3u);
    EXPECT_EQ(c.rateLimited, 1u);
    EXPECT_EQ(fileLines(path).size(), 3u);
}

TEST(EventLog, WritesValidJsonlWithFieldsAndMonotonicTimestamps)
{
    const std::string path =
        ::testing::TempDir() + "/eventlog_jsonl.jsonl";
    std::remove(path.c_str());
    std::uint64_t now = 100;
    serve::EventLog log;
    serve::EventLog::Options opts;
    opts.clockMs = [&now] { return now; };
    std::string error;
    ASSERT_TRUE(log.open(path, opts, error)) << error;

    now = 142;
    log.log(serve::EventLog::Level::Info, "jobSubmitted",
            {{"id", "j1"}, {"priority", "2"}});
    now = 250;
    log.log(serve::EventLog::Level::Warn, "submitRejected",
            {{"reason", "queue \"full\""}}); // value needs escaping

    std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 2u);
    std::uint64_t prev = 0;
    for (const std::string& line : lines) {
        Json doc;
        ASSERT_TRUE(Json::parse(line, doc, error))
            << error << ": " << line;
        const Json* tMs = doc.find("tMs");
        ASSERT_NE(tMs, nullptr);
        ASSERT_TRUE(tMs->isNumber());
        EXPECT_GE(tMs->asU64(), prev);
        prev = tMs->asU64();
        ASSERT_NE(doc.find("level"), nullptr);
        ASSERT_NE(doc.find("event"), nullptr);
    }
    Json doc;
    ASSERT_TRUE(Json::parse(lines[0], doc, error));
    EXPECT_EQ(doc.find("tMs")->asU64(), 42u); // relative to open()
    EXPECT_EQ(doc.find("id")->asString(), "j1");
    ASSERT_TRUE(Json::parse(lines[1], doc, error));
    EXPECT_EQ(doc.find("reason")->asString(), "queue \"full\"");
}

TEST(EventLog, ClosedLogIsANoOp)
{
    serve::EventLog log;
    EXPECT_FALSE(log.enabled());
    log.log(serve::EventLog::Level::Error, "dropped");
    serve::EventLog::Counters c = log.counters();
    EXPECT_EQ(c.written, 0u);
    EXPECT_EQ(c.filtered, 0u);
}

TEST(EventLog, OpenFailureReportsError)
{
    serve::EventLog log;
    serve::EventLog::Options opts;
    std::string error;
    EXPECT_FALSE(
        log.open("/nonexistent-dir/event.jsonl", opts, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(log.enabled());
}

TEST(EventLog, ManagerEmitsLifecycleEvents)
{
    const std::string path =
        ::testing::TempDir() + "/eventlog_manager.jsonl";
    std::remove(path.c_str());
    serve::EventLog log;
    serve::EventLog::Options opts;
    opts.level = serve::EventLog::Level::Debug;
    std::string error;
    ASSERT_TRUE(log.open(path, opts, error)) << error;

    {
        ExperimentRunner runner(tinyOptions(), &ThreadPool::global());
        serve::JobConfig config;
        config.events = &log;
        serve::JobManager jobs(runner, config);
        SweepSpec spec({"hotspot"}, {Technique::Baseline},
                       tinyOptions());
        auto outcome = jobs.submit(spec, 0);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        jobs.drain(); // wait for the job, then tear the manager down
    }

    std::string all;
    for (const std::string& line : fileLines(path))
        all += line + "\n";
    EXPECT_NE(all.find("\"event\":\"jobSubmitted\""),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("\"event\":\"jobStarted\""), std::string::npos)
        << all;
    EXPECT_NE(all.find("\"event\":\"jobFinished\""),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("\"state\":\"done\""), std::string::npos)
        << all;
}

} // namespace
