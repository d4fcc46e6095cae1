#include "perfbench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "serve/wire.hh"
#include "workload/profile.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace wg;

// ----- seeded inputs -----

ExperimentOptions
benchOptions(std::uint64_t seed)
{
    ExperimentOptions opts;
    opts.seed = seed;
    return opts;
}

std::vector<Submission>
planServedJobs(std::uint64_t seed, std::size_t n)
{
    const std::vector<std::string> benches = benchmarkNames();
    const std::vector<Technique>& techs = allTechniques();
    const std::size_t grid = benches.size() * techs.size();
    Rng rng(seed, 0x9e3779b97f4a7c15ULL);

    std::vector<std::size_t> order(grid);
    std::size_t next_in_order = grid; // forces a fresh permutation
    std::uint64_t cell_seed = seed - 1;
    std::vector<std::size_t> news;         // plan indices of New entries
    std::vector<std::size_t> default_news; // ... at the run seed

    auto pick = [&rng](const std::vector<std::size_t>& from) {
        return from[rng.nextRange(static_cast<std::uint32_t>(from.size()))];
    };

    std::vector<Submission> plan;
    plan.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = i % 10;
        Submission s;
        if ((slot == 3 || slot == 9) && !news.empty()) {
            const std::size_t j = pick(news);
            s = plan[j];
            s.kind = SubmitKind::Dup;
            s.repeats = j;
        } else if (slot == 6 && !default_news.empty()) {
            const std::size_t j = pick(default_news);
            s = plan[j];
            s.kind = SubmitKind::Alias;
            s.repeats = j;
        } else {
            if (next_in_order == grid) {
                for (std::size_t k = 0; k < grid; ++k)
                    order[k] = k;
                for (std::size_t k = grid - 1; k > 0; --k)
                    std::swap(order[k],
                              order[rng.nextRange(
                                  static_cast<std::uint32_t>(k + 1))]);
                next_in_order = 0;
                ++cell_seed;
            }
            const std::size_t cell = order[next_in_order++];
            s.kind = SubmitKind::New;
            s.bench = benches[cell / techs.size()];
            s.technique = techs[cell % techs.size()];
            s.cellSeed = cell_seed;
            s.repeats = i;
            news.push_back(i);
            if (cell_seed == seed)
                default_news.push_back(i);
        }
        plan.push_back(std::move(s));
    }
    return plan;
}

// ----- statistics -----

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(pct / 100.0 *
                                  static_cast<double>(xs.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

double
tailPercentile(std::size_t n)
{
    // In tenths of a percent, so the "samples beyond" count is exact:
    // beyond(p) = n * (1000 - p) / 1000 >= 10.
    for (std::uint64_t tenths : {999u, 990u, 900u, 500u})
        if (static_cast<std::uint64_t>(n) * (1000 - tenths) >= 10000)
            return static_cast<double>(tenths) / 10.0;
    return 0.0;
}

// ----- paper reference -----

const Fig9Averages&
paperFig9()
{
    static const Fig9Averages paper = {
        {20.1, 21.5, 27.8, 31.5, 31.6},
        {31.4, 35.2, 41.1, 45.6, 46.5},
    };
    return paper;
}

const std::array<Technique, 5>&
fig9Techniques()
{
    static const std::array<Technique, 5> techs = {
        Technique::ConvPG, Technique::Gates, Technique::NaiveBlackout,
        Technique::CoordinatedBlackout, Technique::WarpedGates};
    return techs;
}

double
paperErrPp(const Fig9Averages& measured)
{
    const Fig9Averages& paper = paperFig9();
    double sum = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
        sum += std::fabs(measured.intPct[i] - paper.intPct[i]);
        sum += std::fabs(measured.fpPct[i] - paper.fpPct[i]);
    }
    return sum / 10.0;
}

// ----- digests and correctness -----

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
cellDigest(const std::string& bench, Technique t,
           const ExperimentOptions& opts, const SimResult& result)
{
    const std::uint64_t h =
        fnv1a(serve::wire::resultDoc(bench, t, opts, result).dump());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
checkCell(const SimResult& result)
{
    if (!result.aggregate.completed)
        return "hit maxCycles before draining";
    const struct
    {
        const char* name;
        const UnitEnergy& e;
    } units[] = {{"int", result.intEnergy},
                 {"fp", result.fpEnergy},
                 {"sfu", result.sfuEnergy},
                 {"ldst", result.ldstEnergy}};
    for (const auto& u : units) {
        const double lhs = u.e.staticE + u.e.staticSaved;
        const double tol = 1e-9 * std::max(std::fabs(u.e.staticNoPg), 1e-30);
        if (std::fabs(lhs - u.e.staticNoPg) > tol)
            return std::string("energy identity broken for ") + u.name;
    }
    return "";
}

std::string
pinKey(const std::string& bench, Technique t)
{
    return bench + "/" + techniqueName(t);
}

std::map<std::string, std::string>
loadPinned(const std::string& path)
{
    std::map<std::string, std::string> pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string bench, tech, digest;
        if (fields >> bench >> tech >> digest)
            pins[bench + "/" + tech] = digest;
    }
    return pins;
}

DigestBuf::DigestBuf() : window_(1 << 16)
{
    setp(window_.data(), window_.data() + window_.size());
}

void
DigestBuf::drain()
{
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    hash_ = fnv1a(std::string_view(pbase(), n), hash_);
    bytes_ += n;
    setp(window_.data(), window_.data() + window_.size());
}

DigestBuf::int_type
DigestBuf::overflow(int_type ch)
{
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

int
DigestBuf::sync()
{
    drain();
    return 0;
}

std::uint64_t
DigestBuf::digest()
{
    drain();
    return hash_;
}

// ----- host -----

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str(); // stop at the first NUL
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

} // namespace

HostInfo
hostInfo()
{
    HostInfo h;
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
    h.poolThreads = ThreadPool::global().size();
    h.buildType = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    h.optimized = true;
#endif
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.cpu = cpuModel();
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// ----- spans -----

namespace {

thread_local std::uint32_t t_current_span = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

std::uint32_t
SpanLog::begin(std::string name, std::string item, std::uint32_t parent)
{
    SpanRecord rec;
    rec.name = std::move(name);
    rec.item = std::move(item);
    rec.parent = parent;
    rec.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
SpanLog::end(std::uint32_t id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].endNs = t;
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

Span::Span(SpanLog& log, std::string name, std::string item)
    : Span(log, std::move(name), std::move(item), t_current_span)
{
}

Span::Span(SpanLog& log, std::string name, std::string item,
           std::uint32_t parent)
    : log_(log)
{
    if (!log_.enabled())
        return;
    id_ = log_.begin(std::move(name), std::move(item), parent);
    saved_ = t_current_span;
    t_current_span = id_;
}

Span::~Span()
{
    if (id_ == 0)
        return;
    log_.end(id_);
    t_current_span = saved_;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<SpanRecord>& spans)
{
    std::map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord& s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].emplace_back(s.startNs, s.endNs);
    }

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = spans[i].endNs;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t run_lo = 0, run_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= run_hi) {
                run_hi = std::max(run_hi, b);
                continue;
            }
            if (open)
                covered += run_hi - run_lo;
            run_lo = a;
            run_hi = b;
            open = true;
        }
        if (open)
            covered += run_hi - run_lo;
        self[i] = std::max<std::int64_t>(hi - lo - covered, 0);
    }
    return self;
}

std::map<std::string, double>
layerSelfMs(const std::vector<SpanRecord>& spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string& name = spans[i].name;
        out[name.substr(0, name.find('.'))] +=
            static_cast<double>(self[i]) * 1e-6;
    }
    return out;
}

const std::vector<std::string>&
spanLayers()
{
    static const std::vector<std::string> layers = {
        "bench", "workload", "sim",     "power", "core",
        "trace", "metrics",  "report", "serve"};
    return layers;
}

// ----- outcome -----

void
Outcome::check(const std::string& what, const std::string& why)
{
    ++attempted;
    if (why.empty())
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what + ": " + why);
}

MetricMap
zeroLayers()
{
    static const std::pair<const char*, const char*> catalogue[] = {
        {"workload.gen_ms", "ms"},
        {"workload.instrs", "count"},
        {"sim.run_ms", "ms"},
        {"sim.sm_cycles", "cycles"},
        {"sim.issued", "count"},
        {"sim.ns_per_sm_cycle", "ns"},
        {"sim.ff_skipped_frac", "ratio"},
        {"sim.ff_spans", "count"},
        {"sim.restore_ms", "ms"},
        {"sched.issue_util", "ratio"},
        {"sched.avg_active_warps", "warps"},
        {"sched.priority_switches", "count"},
        {"exec.int_busy_frac", "ratio"},
        {"exec.fp_busy_frac", "ratio"},
        {"mem.miss_frac", "ratio"},
        {"mem.mshr_rejects", "count"},
        {"pg.gating_events", "count"},
        {"pg.critical_wakeups_per_1k", "1/kcycle"},
        {"pg.wakeup_requests", "count"},
        {"pg.compensated_frac", "ratio"},
        {"power.energy_us", "us"},
        {"core.runall_ms", "ms"},
        {"core.cache_hit_frac", "ratio"},
        {"core.pool_tasks", "count"},
        {"core.cpu_util", "ratio"},
        {"trace.events", "count"},
        {"trace.lost_frac", "ratio"},
        {"trace.record_ms", "ms"},
        {"trace.render_ms", "ms"},
        {"trace.bytes", "bytes"},
        {"trace.ns_per_event", "ns"},
        {"metrics.samples", "count"},
        {"metrics.render_ms", "ms"},
        {"metrics.bytes", "bytes"},
        {"report.render_ms", "ms"},
        {"report.bytes", "bytes"},
        {"serve.snapshot_encode_ms", "ms"},
        {"serve.snapshot_parse_ms", "ms"},
        {"serve.snapshot_bytes", "bytes"},
        {"serve.submit_ms", "ms"},
        {"serve.results_ms", "ms"},
        {"serve.admission_wait_ms", "ms"},
        {"serve.dedup_hits", "count"},
        {"serve.delivery_ms", "ms"},
        {"span.count", "count"},
        {"span.overhead_frac", "ratio"},
    };
    MetricMap out;
    for (const auto& [name, unit] : catalogue)
        out[name] = {0.0, unit};
    for (const std::string& layer : spanLayers())
        out["self_ms." + layer] = {0.0, "ms"};
    return out;
}

} // namespace perfbench
