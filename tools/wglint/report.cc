#include "report.hh"

#include <ostream>

#include "common/jsonescape.hh"

namespace wglint {

using wg::jsonEscape;

bool
violationLess(const Violation& a, const Violation& b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.rule != b.rule)
        return a.rule < b.rule;
    return a.message < b.message;
}

std::string
ruleHint(const std::string& rule)
{
    if (rule == "D1")
        return "route timing through metrics/phase_timer.hh or add "
               "'// wglint:allow(D1)' with a rationale";
    if (rule == "D2")
        return "use std::map/std::set (ordered) or copy keys into a "
               "sorted vector before iterating";
    if (rule == "D4")
        return "registry names are '.'-separated and wire keys are "
               "camelCase; keep '_' out so the Prometheus '.'->'_' "
               "mapping stays bijective";
    if (rule == "H1")
        return "add '#pragma once' as the first directive and keep "
               "'using namespace' out of headers";
    if (rule == "C2")
        return "take the class's lock (RAII guard) before writing the "
               "field, mark the method WG_REQUIRES(mu) / name it "
               "*Locked if a caller already holds it, or add "
               "'// wglint:allow(C2)' for single-threaded phases";
    return "";
}

void
printReport(std::ostream& out,
            const std::vector<Violation>& violations,
            std::size_t fileCount, const std::string& format)
{
    for (const Violation& v : violations) {
        if (format == "jsonl") {
            out << "{\"rule\":\"" << jsonEscape(v.rule)
                << "\",\"file\":\"" << jsonEscape(v.file)
                << "\",\"line\":" << v.line << ",\"message\":\""
                << jsonEscape(v.message) << "\",\"hint\":\""
                << jsonEscape(v.hint) << "\"}\n";
        } else {
            out << v.file << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n    hint: " << v.hint << "\n";
        }
    }
    if (format == "text") {
        out << (violations.empty() ? "wglint: clean ("
                                   : "wglint: FAILED (")
            << fileCount << " files, " << violations.size()
            << " violation" << (violations.size() == 1 ? "" : "s")
            << ")\n";
    }
}

void
printRules(std::ostream& out)
{
    out << "D1  no nondeterminism sources (clocks, rand, sleeps) "
           "outside phase_timer.hh / suppressed profiling sites; "
           "serve/ may use monotonic socket timeouts "
           "(steady_clock, sleep_for, sleep_until) only\n"
        << "D2  no unordered_map/unordered_set iteration in "
           "result-affecting code (stats, metrics, report, trace, "
           "export, sinks, tools)\n"
        << "D4  metric-name literals passed to StatSet accessors and "
           "JSON keys embedded in string literals (wire frames, "
           "event log) contain no '_'\n"
        << "C2  a field guarded by a lock in one place (WG_GUARDED_BY "
           "or writes under a RAII guard) is not written elsewhere "
           "without the lock, a WG_REQUIRES/*Locked contract, or a "
           "suppression\n"
        << "H1  headers carry '#pragma once' and no 'using "
           "namespace'\n"
        << "Suppress with '// wglint:allow(RULE)' on the violating "
           "line or the line above.\n";
}

} // namespace wglint
