/**
 * @file
 * wgtrace — offline inspector/checker for wgsim JSONL event traces.
 *
 * Replays a trace produced with `wgsim --trace=<file>`
 * (`--trace-format=jsonl`, the default) and
 *   - prints a per-kind event summary, and
 *   - with --check, verifies the gating invariants the Warped Gates
 *     claims rest on: a gated unit never issues, a blackout holds at
 *     least break-even cycles, coordinated blackout never gates the
 *     second cluster of a type against waiting warps, and the adaptive
 *     idle-detect window follows its fast-increase/slow-decrease
 *     schedule inside [min, max]. An SM whose ring wrapped (a
 *     `truncated` marker) cannot be checked, so --check fails on one.
 *
 * Reads trace schema versions 1 to 3 (the meta line's `version`). The
 * body lines are parsed on the shared thread pool (trace::readJsonl)
 * and checked in file order.
 *
 * Exit codes: 0 = clean, 1 = invariant violations found or an SM left
 * unchecked, 2 = usage or parse errors.
 *
 * Examples:
 *   wgsim --bench hotspot --technique WarpedGates --trace=t.jsonl
 *   wgtrace --check t.jsonl
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/args.hh"
#include "common/threadpool.hh"
#include "trace/check.hh"
#include "trace/sink.hh"

namespace {

using namespace wg;

/** The whole command line, declaratively (drives parsing and --help). */
constexpr FlagSpec kFlags[] = {
    {"check", FlagKind::Bool, "", "verify the gating invariants"},
    {"quiet", FlagKind::Bool, "", "suppress the event summary"},
    {"max-report", FlagKind::Count, "20",
     "print at most this many violations (0 = all)"},
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgtrace",
                   "offline wgsim trace inspector and invariant checker; "
                   "reads the JSONL format (wgtrace <trace.jsonl>)",
                   kFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;
    if (args.positional().size() != 1) {
        std::fprintf(stderr, "usage: wgtrace [--check] <trace.jsonl>\n");
        return 2;
    }

    const std::string& path = args.positional()[0];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "wgtrace: cannot open '%s'\n", path.c_str());
        return 2;
    }

    std::string line;
    if (!std::getline(in, line)) {
        std::fprintf(stderr, "wgtrace: '%s' is empty\n", path.c_str());
        return 2;
    }
    trace::Meta meta;
    std::string error;
    if (!trace::parseJsonlMeta(line, meta, error)) {
        std::fprintf(stderr,
                     "wgtrace: '%s' does not start with a meta line this "
                     "wgtrace reads (is this a JSONL trace?): %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }

    trace::InvariantChecker checker(meta);
    std::uint64_t bad_lines = 0;
    trace::readJsonl(
        in, meta.version, &ThreadPool::global(),
        [&](const trace::JsonlLine& l) {
            if (!l.ok) {
                if (++bad_lines <= 5)
                    std::fprintf(stderr,
                                 "wgtrace: %s:%llu: malformed line\n",
                                 path.c_str(),
                                 static_cast<unsigned long long>(l.number));
            } else if (l.record.marker) {
                checker.noteTruncated(l.record.sm, l.record.truncated);
            } else {
                checker.feed(l.record.sm, l.record.event);
            }
        });
    if (bad_lines > 0) {
        std::fprintf(stderr, "wgtrace: %llu malformed line(s)\n",
                     static_cast<unsigned long long>(bad_lines));
        return 2;
    }

    if (!args.getBool("quiet")) {
        std::cout << path << ": " << checker.eventCount() << " events, "
                  << meta.numSms << " SMs, policy " << meta.policy
                  << ", scheduler " << meta.scheduler << "\n";
        for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
            auto kind = static_cast<trace::EventKind>(k);
            std::uint64_t n = checker.eventCount(kind);
            if (n == 0)
                continue;
            std::cout << "  " << trace::eventKindName(kind) << ": " << n;
            if (kind == trace::EventKind::MshrReject)
                std::cout << " runs, " << checker.rejectCycles()
                          << " cycles, " << checker.rejectAttempts()
                          << " attempts";
            std::cout << "\n";
        }
        for (const std::string& w : checker.warnings())
            std::cout << "  warning: " << w << "\n";
    }

    if (!args.getBool("check"))
        return 0;

    if (!args.getBool("quiet"))
        std::cout << "check: checked " << checker.checkedSms() << " of "
                  << meta.numSms << " SMs\n";
    const std::size_t truncated = checker.truncatedSms();
    if (truncated > 0)
        std::cout << "check: " << truncated
                  << " SM(s) truncated: their rings wrapped, so their "
                     "invariants went unchecked\n";

    const auto& violations = checker.violations();
    if (violations.empty()) {
        if (truncated > 0)
            return 1;
        if (!args.getBool("quiet"))
            std::cout << "check: all gating invariants hold\n";
        return 0;
    }
    const std::uint64_t limit = args.getCount("max-report");
    std::uint64_t shown = 0;
    for (const trace::Violation& v : violations) {
        if (limit > 0 && shown++ >= limit) {
            std::cout << "... and " << violations.size() - limit
                      << " more\n";
            break;
        }
        std::cout << "VIOLATION: " << v.toString() << "\n";
    }
    std::cout << "check: " << violations.size()
              << " invariant violation(s)\n";
    return 1;
}
