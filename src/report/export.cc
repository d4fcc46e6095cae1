#include "export.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/jsonescape.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace wg {

namespace {

void
jsonHistogram(std::ostringstream& os, const Histogram& h)
{
    os << "{\"bins\":[";
    for (std::uint64_t b = 0; b <= h.maxBin(); ++b) {
        if (b)
            os << ',';
        os << h.bin(b);
    }
    os << "],\"overflow\":" << h.overflow() << ",\"total\":" << h.total()
       << ",\"sum\":" << h.sum() << "}";
}

void
jsonTypeStats(std::ostringstream& os, const PgDomainStats& s)
{
    os << "{\"busy\":" << s.busyCycles << ",\"idle_on\":" << s.idleOnCycles
       << ",\"uncomp\":" << s.uncompCycles << ",\"comp\":" << s.compCycles
       << ",\"wakeup_cycles\":" << s.wakeupCycles
       << ",\"gating_events\":" << s.gatingEvents
       << ",\"wakeups\":" << s.wakeups
       << ",\"uncomp_wakeups\":" << s.uncompWakeups
       << ",\"critical_wakeups\":" << s.criticalWakeups << "}";
}

void
jsonEnergy(std::ostringstream& os, const UnitEnergy& e)
{
    os << "{\"dynamic_j\":" << e.dynamicE << ",\"static_j\":" << e.staticE
       << ",\"overhead_j\":" << e.overheadE
       << ",\"static_saved_j\":" << e.staticSaved
       << ",\"static_no_pg_j\":" << e.staticNoPg
       << ",\"savings_ratio\":" << e.staticSavingsRatio() << "}";
}

double
busyFraction(const SimResult& r, UnitClass uc)
{
    if (r.totalSmCycles == 0)
        return 0.0;
    return static_cast<double>(r.typeStats(uc).busyCycles) /
           (2.0 * static_cast<double>(r.totalSmCycles));
}

} // namespace

const std::vector<ExportField>&
csvSchema()
{
    // Column order is the wire format; toCsvRow emits in this order.
    static const std::vector<ExportField> schema = {
        {"label", ""},
        {"scheduler", ""},
        {"pg_policy", ""},
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
    return schema;
}

const std::vector<ExportField>&
jsonSchema()
{
    auto type_block = [](const std::string& json_type,
                         const std::string& reg_type) {
        std::vector<ExportField> fields = {
            {json_type + ".stats.busy", "gpu.pg." + reg_type + ".busyCycles"},
            {json_type + ".stats.idle_on",
             "gpu.pg." + reg_type + ".idleOnCycles"},
            {json_type + ".stats.uncomp",
             "gpu.pg." + reg_type + ".uncompCycles"},
            {json_type + ".stats.comp",
             "gpu.pg." + reg_type + ".compCycles"},
            {json_type + ".stats.wakeup_cycles",
             "gpu.pg." + reg_type + ".wakeupCycles"},
            {json_type + ".stats.gating_events",
             "gpu.pg." + reg_type + ".gatingEvents"},
            {json_type + ".stats.wakeups",
             "gpu.pg." + reg_type + ".wakeups"},
            {json_type + ".stats.uncomp_wakeups",
             "gpu.pg." + reg_type + ".uncompWakeups"},
            {json_type + ".stats.critical_wakeups",
             "gpu.pg." + reg_type + ".criticalWakeups"},
            {json_type + ".energy.dynamic_j",
             "gpu.energy." + reg_type + ".dynamicJ"},
            {json_type + ".energy.static_j",
             "gpu.energy." + reg_type + ".staticJ"},
            {json_type + ".energy.overhead_j",
             "gpu.energy." + reg_type + ".overheadJ"},
            {json_type + ".energy.static_saved_j",
             "gpu.energy." + reg_type + ".staticSavedJ"},
            {json_type + ".energy.static_no_pg_j",
             "gpu.energy." + reg_type + ".staticNoPgJ"},
            {json_type + ".energy.savings_ratio",
             "gpu.energy." + reg_type + ".savingsRatio"},
        };
        return fields;
    };
    static const std::vector<ExportField> schema = [&type_block] {
        std::vector<ExportField> s = {
            {"config.adaptive", "config.adaptive"},
            {"config.idle_detect", "config.idleDetect"},
            {"config.break_even", "config.breakEven"},
            {"config.wakeup_delay", "config.wakeupDelay"},
            {"config.num_sms", "config.numSms"},
            {"cycles", "gpu.cycles"},
            {"total_sm_cycles", "gpu.totalSmCycles"},
            {"ipc", "gpu.ipc"},
            {"avg_active_warps", "gpu.avgActiveWarps"},
            {"instructions", "gpu.instructions"},
        };
        for (const auto& f : type_block("int", "int"))
            s.push_back(f);
        for (const auto& f : type_block("fp", "fp"))
            s.push_back(f);
        return s;
    }();
    return schema;
}

std::string
csvHeader()
{
    std::string header;
    for (const ExportField& f : csvSchema()) {
        if (!header.empty())
            header += ',';
        header += f.column;
    }
    return header;
}

std::string
toCsvRow(const std::string& label, const SimResult& r)
{
    PgDomainStats si = r.typeStats(UnitClass::Int);
    PgDomainStats sf = r.typeStats(UnitClass::Fp);
    std::ostringstream os;
    os << label << ','
       << schedulerPolicyName(r.config.sm.scheduler) << ','
       << pgPolicyName(r.config.sm.pg.policy) << ','
       << (r.config.sm.pg.adaptiveIdleDetect ? 1 : 0) << ','
       << r.config.numSms << ',' << r.cycles << ',' << r.ipc() << ','
       << r.aggregate.avgActiveWarps() << ','
       << busyFraction(r, UnitClass::Int) << ','
       << busyFraction(r, UnitClass::Fp) << ','
       << r.intEnergy.staticSavingsRatio() << ','
       << r.fpEnergy.staticSavingsRatio() << ',' << si.wakeups << ','
       << sf.wakeups << ',' << si.criticalWakeups << ','
       << sf.criticalWakeups << ',' << si.gatingEvents << ','
       << sf.gatingEvents << ',' << r.aggregate.memMisses;
    return os.str();
}

std::string
toJson(const std::string& label, const SimResult& r)
{
    std::ostringstream os;
    os << "{\n  \"label\": \"" << jsonEscape(label) << "\",\n";
    os << "  \"config\": {\"scheduler\": \""
       << schedulerPolicyName(r.config.sm.scheduler)
       << "\", \"pg_policy\": \"" << pgPolicyName(r.config.sm.pg.policy)
       << "\", \"adaptive\": "
       << (r.config.sm.pg.adaptiveIdleDetect ? "true" : "false")
       << ", \"idle_detect\": " << r.config.sm.pg.idleDetect
       << ", \"break_even\": " << r.config.sm.pg.breakEven
       << ", \"wakeup_delay\": " << r.config.sm.pg.wakeupDelay
       << ", \"num_sms\": " << r.config.numSms << "},\n";
    os << "  \"cycles\": " << r.cycles << ",\n";
    os << "  \"total_sm_cycles\": " << r.totalSmCycles << ",\n";
    os << "  \"ipc\": " << r.ipc() << ",\n";
    os << "  \"avg_active_warps\": " << r.aggregate.avgActiveWarps()
       << ",\n";
    os << "  \"instructions\": " << r.aggregate.issuedTotal << ",\n";

    os << "  \"int\": {\"stats\": ";
    jsonTypeStats(os, r.typeStats(UnitClass::Int));
    os << ", \"energy\": ";
    jsonEnergy(os, r.intEnergy);
    os << ", \"idle_histogram\": ";
    jsonHistogram(os, r.intIdleHist);
    os << "},\n";

    os << "  \"fp\": {\"stats\": ";
    jsonTypeStats(os, r.typeStats(UnitClass::Fp));
    os << ", \"energy\": ";
    jsonEnergy(os, r.fpEnergy);
    os << ", \"idle_histogram\": ";
    jsonHistogram(os, r.fpIdleHist);
    os << "}\n}";
    return os.str();
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
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << content;
    if (!out)
        fatal("write to '", path, "' failed");
}

} // namespace wg
