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
 *       depend on the host. The check is interprocedural: a call that
 *       transitively reaches an unsuppressed source through any chain
 *       of helpers (across translation units) is flagged at the call
 *       site, with the chain spelled out.
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
 * Parallelism: files are tokenized, per-file-checked and per-file-
 * indexed concurrently on the shared wg::ThreadPool (`--jobs=N`;
 * `--jobs=1` forces the serial reference path, the default uses the
 * hardware-sized global pool). The per-file results are merged in
 * sorted-path order and the cross-TU rules run serially afterwards,
 * so the report is byte-identical at every job count — the
 * determinism contract this tree demands of its own tools.
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
#include <cctype>
#include <filesystem>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common/threadpool.hh"

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

/** Everything derived from one file, independent of every other. */
struct ScanResult
{
    wglint::FileScan scan;
    wglint::FileIndex index;
    std::vector<wglint::Violation> violations;
    bool ok = false;
};

ScanResult
scanOne(const fs::path& file)
{
    ScanResult r;
    r.ok = wglint::tokenize(file, file.generic_string(), r.scan);
    if (!r.ok)
        return r;
    wglint::checkFile(r.scan, r.violations);
    wglint::indexFile(r.scan, r.index);
    return r;
}

int
usage()
{
    std::cerr << "usage: wglint [--format=text|jsonl] [--jobs=N] "
                 "[--list-rules] path...\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string format = "text";
    std::vector<std::string> roots;
    unsigned jobs = 0; // 0 = hardware-sized shared pool
    bool jobsGiven = false;
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
        if (arg.rfind("--jobs=", 0) == 0) {
            const std::string value = arg.substr(7);
            if (value.empty())
                return usage();
            for (char c : value)
                if (!std::isdigit(static_cast<unsigned char>(c)))
                    return usage();
            jobs = static_cast<unsigned>(std::stoul(value));
            jobsGiven = true;
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

    // Per-file phase: tokenize + local rules + local index, one task
    // per file into a pre-sized slot (no cross-task state). --jobs=1
    // is the serial reference the parallel path must match byte for
    // byte; an explicit --jobs=N gets a dedicated pool of that size,
    // the default shares the hardware-sized global pool.
    std::vector<ScanResult> results(files.size());
    if (jobsGiven && jobs == 1) {
        for (std::size_t i = 0; i < files.size(); ++i)
            results[i] = scanOne(files[i]);
    } else {
        wg::ThreadPool local(jobsGiven ? jobs : 0);
        wg::ThreadPool& pool =
            jobsGiven ? local : wg::ThreadPool::global();
        std::vector<std::future<void>> futs;
        futs.reserve(files.size());
        for (std::size_t i = 0; i < files.size(); ++i)
            futs.push_back(pool.submit([&results, &files, i] {
                results[i] = scanOne(files[i]);
            }));
        for (auto& f : futs)
            pool.wait(f);
    }

    // Serial phase, in sorted-path order: IO errors first (matching
    // the serial scanner's first-failure exit), then the deterministic
    // merge that cross-TU rules run on.
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (!results[i].ok) {
            std::cerr << "wglint: cannot read " << files[i] << "\n";
            return 2;
        }
    }
    std::vector<wglint::Violation> violations;
    std::vector<wglint::FileScan> scans;
    scans.reserve(results.size());
    wglint::Index index;
    for (std::size_t i = 0; i < results.size(); ++i) {
        violations.insert(violations.end(),
                          results[i].violations.begin(),
                          results[i].violations.end());
        index.merge(std::move(results[i].index), i);
        scans.push_back(std::move(results[i].scan));
    }
    wglint::checkTree(scans, index, violations);

    std::sort(violations.begin(), violations.end(),
              wglint::violationLess);
    wglint::printReport(std::cout, violations, files.size(), format);
    return violations.empty() ? 0 : 1;
}
