/**
 * @file
 * wglint — project-specific static analysis for the warped-gates tree.
 *
 * A lightweight C++ tokenizer plus a recursive scanner (no libclang)
 * that walks src/, tools/ and bench/ and enforces the contracts every
 * PR so far has relied on but only checked at runtime:
 *
 *   D1  no nondeterminism sources (wall clocks, rand, sleeps) outside
 *       the profiling allowlist — "bit-identical" output must not
 *       depend on the host. Each use is flagged where it appears.
 *   D2  no iteration over unordered containers in result-affecting
 *       code (stats, metrics, report, trace sinks, exporters, tools) —
 *       hash order leaks straight into files CI diffs byte-for-byte.
 *   D4  metric names passed to StatSet accessors contain no '_', so
 *       the Prometheus '.' -> '_' exposition mapping stays bijective;
 *       likewise JSON keys embedded in string literals (hand-built
 *       wire frames, the event log) stay camelCase.
 *   C2  lock-discipline drift across TUs: a field the class guards in
 *       one place (WG_GUARDED_BY, or writes under a RAII guard) must
 *       not be written elsewhere without the lock, a WG_REQUIRES /
 *       *Locked caller-holds-it contract, or a suppression.
 *   H1  header hygiene: every header carries `#pragma once` and no
 *       `using namespace` at header scope.
 *
 * Suppression: `// wglint:allow(RULE)` (comma-separated rules) on the
 * violating line or the line directly above it. Files named
 * `phase_timer.hh` (the sanctioned wall-clock wrapper) are exempt from
 * D1 wholesale. Files under a `serve/` directory get a scoped D1
 * exemption for the socket-timeout subset only (`steady_clock`,
 * `sleep_for`, `sleep_until`): wire deadlines never feed simulation
 * state. Wall clocks and entropy stay banned there too.
 *
 * One serial pass: in sorted-path order each file is tokenized, run
 * through the per-file rules and appended to the cross-TU index; C2
 * runs on the index at the end. The report is sorted, so it is
 * byte-identical on every run.
 *
 * Output: --format=text (default, `file:line: [RULE] message`) or
 * --format=jsonl (one JSON object per violation, CI artifact
 * friendly). Exit status: 0 clean, 1 violations, 2 usage/IO error.
 *
 * The linter must itself pass its own rules (it is scanned as part of
 * tools/), which is why it uses std::map/std::set throughout and never
 * touches a clock.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "index.hh"
#include "report.hh"
#include "rules.hh"
#include "tokenizer.hh"

namespace fs = std::filesystem;

namespace {

bool
scannableExtension(const fs::path& p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
           ext == ".h" || ext == ".hpp";
}

/** Collect files under the given paths in sorted (stable) order. */
std::vector<fs::path>
collectFiles(const std::vector<std::string>& roots, bool& ok)
{
    std::vector<fs::path> files;
    ok = true;
    for (const std::string& r : roots) {
        fs::path p(r);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end;
                 it != end; it.increment(ec)) {
                if (ec)
                    break;
                if (it->is_regular_file(ec) &&
                    scannableExtension(it->path()))
                    files.push_back(it->path());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            std::cerr << "wglint: no such file or directory: " << r
                      << "\n";
            ok = false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

int
usage()
{
    std::cerr << "usage: wglint [--format=text|jsonl] [--list-rules] "
                 "path...\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string format = "text";
    std::vector<std::string> roots;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--list-rules") {
            wglint::printRules(std::cout);
            return 0;
        }
        if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            if (format != "text" && format != "jsonl")
                return usage();
            continue;
        }
        if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0)
            return usage();
        roots.push_back(arg);
    }
    if (roots.empty())
        return usage();

    bool ok = true;
    std::vector<fs::path> files = collectFiles(roots, ok);
    if (!ok)
        return 2;

    std::vector<wglint::Violation> violations;
    std::vector<wglint::FileScan> scans(files.size());
    wglint::Index index;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (!wglint::tokenize(files[i], files[i].generic_string(),
                              scans[i])) {
            std::cerr << "wglint: cannot read " << files[i] << "\n";
            return 2;
        }
        wglint::checkFile(scans[i], violations);
        wglint::indexFile(scans[i], i, index);
    }
    wglint::checkTree(scans, index, violations);

    std::sort(violations.begin(), violations.end(),
              wglint::violationLess);
    wglint::printReport(std::cout, violations, files.size(), format);
    return violations.empty() ? 0 : 1;
}
