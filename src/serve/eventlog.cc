#include "eventlog.hh"

#include <chrono>

#include "common/json.hh"

namespace wg::serve {

namespace {

std::uint64_t
steadyMs()
{
    // Daemon self-observability only; never feeds simulation results.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

const char*
EventLog::levelName(Level level)
{
    switch (level) {
      case Level::Debug: return "debug";
      case Level::Info: return "info";
      case Level::Warn: return "warn";
      case Level::Error: return "error";
    }
    return "?";
}

bool
EventLog::parseLevel(const std::string& name, Level& out)
{
    for (Level l : {Level::Debug, Level::Info, Level::Warn,
                    Level::Error}) {
        if (name == levelName(l)) {
            out = l;
            return true;
        }
    }
    return false;
}

bool
EventLog::open(const std::string& path, const Options& opts,
               std::string& error)
{
    MutexLock lock(mu_);
    out_.open(path, std::ios::app);
    if (!out_) {
        error = "cannot open event log '" + path + "' for appending";
        return false;
    }
    opts_ = opts;
    if (!opts_.clockMs)
        opts_.clockMs = steadyMs;
    open_ms_ = opts_.clockMs();
    window_sec_ = 0;
    window_count_ = 0;
    enabled_ = true;
    return true;
}

bool
EventLog::enabled() const
{
    MutexLock lock(mu_);
    return enabled_;
}

void
EventLog::log(Level level, const std::string& event,
              std::initializer_list<std::pair<const char*, std::string>>
                  fields)
{
    MutexLock lock(mu_);
    if (!enabled_)
        return;
    if (level < opts_.level) {
        ++counters_.filtered;
        return;
    }
    const std::uint64_t now = opts_.clockMs();
    const std::uint64_t t_ms = now - open_ms_;
    if (opts_.maxPerSecond != 0) {
        const std::uint64_t sec = t_ms / 1000;
        if (sec != window_sec_) {
            window_sec_ = sec;
            window_count_ = 0;
        }
        if (window_count_ >= opts_.maxPerSecond) {
            ++counters_.rateLimited;
            return;
        }
        ++window_count_;
    }
    std::string line = "{\"tMs\":";
    line += std::to_string(t_ms);
    line += ",\"level\":\"";
    line += levelName(level);
    line += "\",\"event\":\"";
    line += jsonEscape(event);
    line += '"';
    for (const auto& [key, value] : fields) {
        line += ",\"";
        line += key;
        line += "\":\"";
        line += jsonEscape(value);
        line += '"';
    }
    line += "}\n";
    out_ << line;
    out_.flush();
    ++counters_.written;
}

EventLog::Counters
EventLog::counters() const
{
    MutexLock lock(mu_);
    return counters_;
}

} // namespace wg::serve
