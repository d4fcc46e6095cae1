/**
 * @file
 * wgservd — simulation-as-a-service daemon.
 *
 * Serves the line-delimited JSON protocol (and, on the same port,
 * OpenMetrics scrapes for any HTTP GET) on loopback. Jobs run through
 * the shared ExperimentRunner cache on the process thread pool, so
 * concurrent sweeps dedup both whole jobs (admission) and individual
 * cells (single-flight cache). Every result stays cached, and held by
 * its jobs, for the life of the process.
 *
 * Examples:
 *   wgservd --port 7421
 *   wgservd --port 0                # pick a free port, printed on stdout
 *   wgservd --queue-capacity 512 --max-concurrent 4
 *
 * SIGTERM/SIGINT drain gracefully: stop admitting, finish every queued
 * and running job, then exit (DESIGN.md §15).
 */

#include <csignal>
#include <cstdio>
#include <limits>
#include <unistd.h>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "experiment_flags.hh"
#include "serve/server.hh"

namespace {

using namespace wg;

constexpr FlagSpec kFlags[] = {
    {"port", FlagKind::Count, "7421",
     "loopback TCP port (0 = pick a free one; printed on stdout)",
     std::numeric_limits<std::uint16_t>::max()},
    {"queue-capacity", FlagKind::Count, "256",
     "max queued jobs before submissions are rejected"},
    {"max-concurrent", FlagKind::Count, "2",
     "jobs dispatched concurrently (each fans per-SM work into the "
     "pool)",
     std::numeric_limits<unsigned>::max()},
    {"priorities", FlagKind::Count, "4",
     "number of priority levels (valid priorities: 0..n-1)",
     std::numeric_limits<unsigned>::max()},
    {"serial", FlagKind::Bool, "",
     "run simulations serially instead of on the shared thread pool "
     "(results are identical)"},
    {"log-file", FlagKind::String, "",
     "append structured jsonl events (submits, dispatches, "
     "completions) to this file"},
    {"log-level", FlagKind::String, "info",
     "event-log threshold: debug|info|warn|error"},
};

/**
 * SIGTERM/SIGINT self-pipe: the handler only write()s one byte (the
 * single async-signal-safe thing to do); the server's poll loop owns
 * the actual drain.
 */
volatile sig_atomic_t g_wake_fd = -1;

void
onSignal(int)
{
    if (g_wake_fd >= 0) {
        char byte = 't';
        (void)!::write(g_wake_fd, &byte, 1);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgservd",
                   "Warped Gates simulation daemon (JSON-over-TCP + "
                   "OpenMetrics); the experiment flags (--sms, --seed, "
                   "--idle-detect, --bet, --wakeup) are the defaults of "
                   "jobs that carry no options",
                   kFlags, kExperimentFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;

    ThreadPool* pool =
        args.getBool("serial") ? nullptr : &ThreadPool::global();
    ExperimentRunner runner(readExperimentOptions(args), pool);

    serve::ServerConfig config;
    config.port = static_cast<std::uint16_t>(args.getCount("port"));
    config.jobs.queueCapacity = args.getCount("queue-capacity");
    config.jobs.maxConcurrentJobs =
        static_cast<unsigned>(args.getCount("max-concurrent"));
    config.jobs.numPriorities =
        static_cast<unsigned>(args.getCount("priorities"));

    serve::EventLog events;
    if (args.given("log-file")) {
        serve::EventLog::Options logOpts;
        if (!serve::EventLog::parseLevel(args.getString("log-level"),
                                         logOpts.level)) {
            std::fprintf(stderr,
                         "wgservd: unknown --log-level '%s' "
                         "(debug|info|warn|error)\n",
                         args.getString("log-level").c_str());
            return 2;
        }
        std::string logError;
        if (!events.open(args.getString("log-file"), logOpts,
                         logError)) {
            std::fprintf(stderr, "wgservd: %s\n", logError.c_str());
            return 1;
        }
        config.jobs.events = &events;
        // Tee the process logger (warn/inform) into the event log so
        // operational noise lands in one structured place.
        setLogHook([&events](LogLevel level, const std::string& msg) {
            serve::EventLog::Level mapped =
                serve::EventLog::Level::Info;
            if (level == LogLevel::Warn)
                mapped = serve::EventLog::Level::Warn;
            else if (level != LogLevel::Inform)
                mapped = serve::EventLog::Level::Error;
            events.log(mapped, "log", {{"message", msg}});
        });
    }

    serve::Server server(runner, config);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "wgservd: %s\n", error.c_str());
        return 1;
    }

    int sigpipe[2];
    if (::pipe(sigpipe) != 0) {
        std::fprintf(stderr, "wgservd: pipe failed\n");
        return 1;
    }
    g_wake_fd = sigpipe[1];
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Scripts parse this line for the port; keep the format stable.
    std::printf("wgservd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    if (!server.serve(sigpipe[0], error)) {
        std::fprintf(stderr, "wgservd: %s\n", error.c_str());
        return 1;
    }

    // Jobs are drained; now quiesce the pool itself so no nested task
    // is mid-flight when the process exits.
    if (pool != nullptr)
        pool->drain();
    inform("wgservd: drained, exiting");
    setLogHook({}); // the hook references `events`; detach before exit
    return 0;
}
