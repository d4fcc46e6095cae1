#include "session.hh"

#include <future>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/gpu.hh"
#include "workload/generator.hh"

namespace wg {

SimSession::SimSession(const GpuConfig& config, ThreadPool* pool,
                       trace::Collector* collector,
                       metrics::Collector* metrics)
    : config_(config), pool_(pool), collector_(collector),
      metrics_(metrics)
{
    if (config_.numSms == 0)
        fatal("SimSession: numSms must be positive");
}

void
SimSession::buildSms(std::vector<std::vector<Program>> per_sm)
{
    if (per_sm.empty())
        fatal("SimSession: no SM workloads");

    // Pre-create every per-SM recorder/sampler before any job is
    // dispatched: each SM then touches only its own ring buffer and
    // sampler, so the pooled and serial paths emit bit-identical
    // traces and metrics.
    const unsigned n = static_cast<unsigned>(per_sm.size());
    if (collector_) {
        collector_->prepare(n);
        collector_->meta = makeTraceMeta(config_, n);
    }
    if (metrics_)
        metrics_->prepare(n, config_.sm.pg.epochLength);

    sms_.clear();
    sms_.reserve(n);
    for (unsigned s = 0; s < n; ++s)
        sms_.push_back(std::make_unique<Sm>(
            config_.sm, std::move(per_sm[s]), streamSeed(config_.seed, s),
            collector_ ? collector_->recorder(s) : nullptr,
            metrics_ ? metrics_->sampler(s) : nullptr));
}

SimSession
SimSession::open(const BenchmarkProfile& profile, const GpuConfig& config,
                 ThreadPool* pool, trace::Collector* collector,
                 metrics::Collector* metrics)
{
    SimSession session(config, pool, collector, metrics);
    ProgramGenerator gen(config.seed);
    std::vector<std::vector<Program>> per_sm;
    {
        metrics::PhaseTimers::Scope timer(
            metrics ? &metrics->profile : nullptr, "workloadGen");
        per_sm.reserve(config.numSms);
        for (unsigned s = 0; s < config.numSms; ++s)
            per_sm.push_back(gen.generateSm(profile, s));
    }
    session.buildSms(std::move(per_sm));
    return session;
}

SimSession
SimSession::openPrograms(const std::vector<std::vector<Program>>& per_sm,
                         const GpuConfig& config, ThreadPool* pool,
                         trace::Collector* collector,
                         metrics::Collector* metrics)
{
    SimSession session(config, pool, collector, metrics);
    session.buildSms(per_sm);
    return session;
}

std::unique_ptr<SimSession>
SimSession::restore(const GpuSnapshot& snap,
                    const BenchmarkProfile& profile,
                    const GpuConfig& config, ThreadPool* pool,
                    trace::Collector* collector,
                    metrics::Collector* metrics, std::string* error)
{
    auto fail = [error](std::string what) {
        if (error)
            *error = std::move(what);
        return nullptr;
    };
    if (snap.sms.empty())
        return fail("snapshot has no SM sections");
    if (snap.sms.size() != config.numSms)
        return fail("snapshot SM count does not match the config");

    auto session = std::unique_ptr<SimSession>(new SimSession(
        SimSession::open(profile, config, pool, collector, metrics)));
    for (unsigned s = 0; s < session->numSms(); ++s) {
        std::string sm_error;
        if (!session->sms_[s]->restore(snap.sms[s], &sm_error))
            return fail("sm " + std::to_string(s) + ": " + sm_error);
    }
    return session;
}

template <typename Fn>
void
SimSession::forEachSm(Fn&& fn)
{
    // Work lands per SM index regardless of execution order and each
    // SM owns its recorder/sampler, so pooled and serial execution are
    // bit-identical.
    if (pool_ == nullptr || sms_.size() == 1) {
        for (unsigned s = 0; s < sms_.size(); ++s)
            fn(s);
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(sms_.size());
    for (unsigned s = 0; s < sms_.size(); ++s)
        futures.push_back(pool_->submit([&fn, s] { fn(s); }));
    for (auto& f : futures)
        pool_->wait(f);
}

void
SimSession::runUntil(Cycle cycle)
{
    metrics::PhaseTimers::Scope timer(
        metrics_ ? &metrics_->profile : nullptr, "simLoop");
    forEachSm([this, cycle](unsigned s) { sms_[s]->runUntil(cycle); });
}

GpuSnapshot
SimSession::snapshot() const
{
    GpuSnapshot snap;
    snap.cycle = 0;
    snap.sms.reserve(sms_.size());
    for (const auto& sm : sms_) {
        if (sm->now() > snap.cycle)
            snap.cycle = sm->now();
        snap.sms.push_back(sm->snapshot());
    }
    return snap;
}

SimResult
SimSession::result()
{
    std::vector<SmStats> stats(sms_.size());
    {
        metrics::PhaseTimers::Scope timer(
            metrics_ ? &metrics_->profile : nullptr, "simLoop");
        forEachSm([this, &stats](unsigned s) {
            stats[s] = sms_[s]->run();
        });
    }
    if (metrics_) {
        for (const auto& sm : sms_) {
            metrics_->ffSkippedCycles += sm->ffSkippedCycles();
            metrics_->ffSpans += sm->ffSpans();
        }
    }
    return aggregate(std::move(stats));
}

bool
SimSession::done() const
{
    for (const auto& sm : sms_)
        if (!sm->done())
            return false;
    return true;
}

SimResult
SimSession::aggregate(std::vector<SmStats> stats)
{
    SimResult result;
    result.config = config_;
    result.aggregate.completed = true;
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < 2; ++c)
            result.aggregate.clusters[t][c].idleHist = Histogram(64);

    for (const SmStats& s : stats) {
        result.smCycles.push_back(s.cycles);
        if (s.cycles > result.cycles)
            result.cycles = s.cycles;
        result.totalSmCycles += s.cycles;
        mergeFields(result.aggregate, s);
    }

    // Per-type idle histograms: both clusters of both types, all SMs.
    result.intIdleHist = result.aggregate.clusters[0][0].idleHist;
    result.intIdleHist.merge(result.aggregate.clusters[0][1].idleHist);
    result.fpIdleHist = result.aggregate.clusters[1][0].idleHist;
    result.fpIdleHist.merge(result.aggregate.clusters[1][1].idleHist);

    {
        metrics::PhaseTimers::Scope timer(
            metrics_ ? &metrics_->profile : nullptr, "energyModel");
        computeEnergy(result);
    }
    return result;
}

} // namespace wg
