#include "export.hh"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/codec.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "metrics/registry.hh"

namespace wg {

namespace {

/** One CSV column and the registry entry whose value it prints. */
struct CsvColumn
{
    const char* name;
    const char* metric; ///< nullptr: an identification column
};

// Column order is the figure-data format. The identification columns
// print, in order, the label, the scheduler and the gating policy.
constexpr CsvColumn kCsvColumns[] = {
    {"label", nullptr},
    {"scheduler", nullptr},
    {"pg_policy", nullptr},
    {"adaptive", "config.adaptive"},
    {"num_sms", "config.numSms"},
    {"cycles", "gpu.cycles"},
    {"ipc", "gpu.ipc"},
    {"avg_active_warps", "gpu.avgActiveWarps"},
    {"int_busy_frac", "gpu.pg.int.busyFraction"},
    {"fp_busy_frac", "gpu.pg.fp.busyFraction"},
    {"int_static_savings", "gpu.energy.int.savingsRatio"},
    {"fp_static_savings", "gpu.energy.fp.savingsRatio"},
    {"int_wakeups", "gpu.pg.int.wakeups"},
    {"fp_wakeups", "gpu.pg.fp.wakeups"},
    {"int_critical", "gpu.pg.int.criticalWakeups"},
    {"fp_critical", "gpu.pg.fp.criticalWakeups"},
    {"int_gating_events", "gpu.pg.int.gatingEvents"},
    {"fp_gating_events", "gpu.pg.fp.gatingEvents"},
    {"mem_misses", "gpu.mem.misses"},
};

std::string
csvRow(const std::string& label, const SimResult& r, const StatSet& stats)
{
    const std::string ident[] = {label,
                                 schedulerPolicyName(r.config.sm.scheduler),
                                 pgPolicyName(r.config.sm.pg.policy)};
    std::size_t next_ident = 0;
    std::ostringstream os;
    for (std::size_t i = 0; i < std::size(kCsvColumns); ++i) {
        const CsvColumn& c = kCsvColumns[i];
        if (i > 0)
            os << ',';
        if (c.metric == nullptr) {
            os << ident[next_ident++];
            continue;
        }
        const auto it = stats.entries().find(c.metric);
        if (it == stats.entries().end())
            panic("CSV column '", c.name, "' names no registry entry '",
                  c.metric, "'");
        // A count >= 1e6 through operator<< would print as 1e+06.
        const double v = it->second;
        if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0)
            os << static_cast<std::int64_t>(v);
        else
            os << v;
    }
    return os.str();
}

Json
resultJson(const std::string& label, const SimResult& r,
           const StatSet& stats)
{
    Json doc = Json::object();
    doc.set("label", Json::string(label));
    doc.set("scheduler",
            Json::string(schedulerPolicyName(r.config.sm.scheduler)));
    doc.set("pgPolicy", Json::string(pgPolicyName(r.config.sm.pg.policy)));
    Json metrics = Json::object();
    for (const auto& [name, value] : stats.entries())
        metrics.set(name, Json::number(value));
    doc.set("metrics", std::move(metrics));
    Json hists = Json::object();
    hists.set("int", codec::histogramToJson(r.intIdleHist));
    hists.set("fp", codec::histogramToJson(r.fpIdleHist));
    doc.set("idleHistograms", std::move(hists));
    return doc;
}

} // namespace

std::string
csvHeader()
{
    std::string header;
    for (const CsvColumn& c : kCsvColumns) {
        if (!header.empty())
            header += ',';
        header += c.name;
    }
    return header;
}

std::string
toCsvRow(const std::string& label, const SimResult& r)
{
    return csvRow(label, r, metrics::toStatSet(r));
}

std::string
toJson(const std::string& label, const SimResult& r)
{
    return resultJson(label, r, metrics::toStatSet(r)).dump();
}

void
printSummary(std::ostream& os, const std::string& label,
             const SimResult& r)
{
    Table table(label + " on " +
                std::string(schedulerPolicyName(r.config.sm.scheduler)) +
                " / " + pgPolicyName(r.config.sm.pg.policy) +
                (r.config.sm.pg.adaptiveIdleDetect ? " + adaptive" : ""));
    table.header({"metric", "INT", "FP"});
    PgDomainStats si = r.typeStats(UnitClass::Int);
    PgDomainStats sf = r.typeStats(UnitClass::Fp);
    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    table.row({"static savings",
               Table::pct(r.intEnergy.staticSavingsRatio()),
               Table::pct(r.fpEnergy.staticSavingsRatio())});
    table.row({"busy cycles", u64(si.busyCycles), u64(sf.busyCycles)});
    table.row({"gated cycles", u64(si.gatedCycles()),
               u64(sf.gatedCycles())});
    table.row({"gating events", u64(si.gatingEvents),
               u64(sf.gatingEvents)});
    table.row({"wakeups (uncomp)",
               u64(si.wakeups) + " (" + u64(si.uncompWakeups) + ")",
               u64(sf.wakeups) + " (" + u64(sf.uncompWakeups) + ")"});
    table.row({"critical wakeups", u64(si.criticalWakeups),
               u64(sf.criticalWakeups)});
    table.print(os);

    os << "cycles " << r.cycles << ", IPC " << Table::num(r.ipc(), 2)
       << ", avg active warps "
       << Table::num(r.aggregate.avgActiveWarps(), 1) << ", mem misses "
       << r.aggregate.memMisses << "\n\n";
}

void
reportResults(std::ostream& os, const std::vector<LabelledResult>& results,
              bool quiet, const std::string& csvPath,
              const std::string& jsonPath)
{
    std::string csv = csvHeader() + "\n";
    Json docs = Json::array();
    for (const LabelledResult& lr : results) {
        if (!quiet)
            printSummary(os, lr.label, *lr.result);
        if (csvPath.empty() && jsonPath.empty())
            continue;
        const StatSet stats = metrics::toStatSet(*lr.result);
        csv += csvRow(lr.label, *lr.result, stats) + "\n";
        docs.append(resultJson(lr.label, *lr.result, stats));
    }
    if (!csvPath.empty()) {
        writeFile(csvPath, csv);
        inform("wrote ", csvPath);
    }
    if (!jsonPath.empty()) {
        Json doc = Json::object();
        doc.set("results", std::move(docs));
        writeFile(jsonPath, doc.dump() + "\n");
        inform("wrote ", jsonPath);
    }
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << content;
    if (!out)
        fatal("write to '", path, "' failed");
}

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

} // namespace wg
