#include "rules.hh"

#include <filesystem>

namespace fs = std::filesystem;

namespace wglint {

namespace {

// ---------------------------------------------------------------------
// D1: nondeterminism sources
// ---------------------------------------------------------------------

/** Identifiers banned on sight (wall clocks, entropy sources). */
const std::set<std::string>&
bannedIdents()
{
    static const std::set<std::string> kSet = {
        "random_device",
        "system_clock",
        "steady_clock",
        "high_resolution_clock",
    };
    return kSet;
}

/** Banned when used as a free-function call. */
const std::set<std::string>&
bannedFreeCalls()
{
    static const std::set<std::string> kSet = {
        "time",   "clock",    "rand",     "srand",
        "usleep", "nanosleep", "gettimeofday", "getrandom",
    };
    return kSet;
}

/** Banned as a call regardless of qualification (thread sleeps). */
const std::set<std::string>&
bannedAnyCalls()
{
    static const std::set<std::string> kSet = {"sleep_for",
                                               "sleep_until"};
    return kSet;
}

/**
 * The serving layer (src/serve/) legitimately needs socket deadlines:
 * monotonic clocks and poll-retry sleeps bound wire I/O, and never
 * feed simulation state — which is the property D1 protects. Only the
 * timeout subset is exempt there; wall clocks (`system_clock`, `time`)
 * and entropy (`rand`, `random_device`) stay banned everywhere.
 */
bool
serveTimeoutExempt(const std::string& path, const std::string& name)
{
    static const std::set<std::string> kTimeoutIdents = {
        "steady_clock", "sleep_for", "sleep_until"};
    if (!kTimeoutIdents.count(name))
        return false;
    return path.find("serve/") != std::string::npos;
}

/** The sanctioned wall-clock wrapper is exempt from D1 wholesale. */
bool
phaseTimerFile(const FileScan& scan)
{
    return fs::path(scan.path).filename() == "phase_timer.hh";
}

void
checkD1(const FileScan& scan, std::vector<Violation>& out)
{
    if (phaseTimerFile(scan))
        return;
    // A preceding keyword (`return time(...)`) still makes a free call,
    // not a declaration.
    static const std::set<std::string> kCallKeywords = {
        "return", "co_return", "co_yield", "co_await",
        "throw",  "case",      "else",     "do",
    };
    const std::vector<Token>& t = scan.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string& name = t[i].text;
        bool hit = false;
        if (bannedIdents().count(name)) {
            hit = true;
        } else if (i + 1 < t.size() && t[i + 1].kind == TokKind::Punct &&
                   t[i + 1].text == "(") {
            if (bannedAnyCalls().count(name)) {
                hit = true;
            } else if (bannedFreeCalls().count(name)) {
                // Skip member calls (`x.time(...)`) and declarations
                // (`Scope time(...)`): flag only free-call shapes.
                bool memberOrDecl = false;
                if (i > 0) {
                    const Token& p = t[i - 1];
                    if ((p.kind == TokKind::Ident &&
                         !kCallKeywords.count(p.text)) ||
                        (p.kind == TokKind::Punct &&
                         (p.text == "." || p.text == "->" ||
                          p.text == "&" || p.text == "*" ||
                          p.text == ">")))
                        memberOrDecl = true;
                }
                hit = !memberOrDecl;
            }
        }
        if (!hit || serveTimeoutExempt(scan.path, name) ||
            suppressed(scan, "D1", t[i].line))
            continue;
        out.push_back({"D1", scan.path, t[i].line,
                       "nondeterminism source '" + name +
                           "' outside the profiling allowlist",
                       ruleHint("D1")});
    }
}

// ---------------------------------------------------------------------
// D2: unordered-container iteration in result-affecting code
// ---------------------------------------------------------------------

/** Paths whose output feeds "bit-identical" artifacts. */
bool
resultAffecting(const std::string& path)
{
    static const char* kMarkers[] = {"stats",  "metrics", "report",
                                     "trace",  "export",  "sink",
                                     "tools"};
    for (const char* m : kMarkers)
        if (path.find(m) != std::string::npos)
            return true;
    return false;
}

const std::set<std::string>&
unorderedTypes()
{
    static const std::set<std::string> kSet = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return kSet;
}

void
checkD2(const FileScan& scan, std::vector<Violation>& out)
{
    if (!resultAffecting(scan.path))
        return;
    const std::vector<Token>& t = scan.tokens;

    // Pass 1: names of variables declared with an unordered type.
    std::set<std::string> vars;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            !unorderedTypes().count(t[i].text))
            continue;
        // Skip the template argument list, tracking angle depth (the
        // tree never uses shift operators inside stat-path template
        // args, so plain counting is exact here).
        std::size_t j = i + 1;
        if (j < t.size() && t[j].kind == TokKind::Punct &&
            t[j].text == "<") {
            int depth = 0;
            for (; j < t.size(); ++j) {
                if (t[j].kind != TokKind::Punct)
                    continue;
                if (t[j].text == "<")
                    ++depth;
                else if (t[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        while (j < t.size() && t[j].kind == TokKind::Punct &&
               (t[j].text == "&" || t[j].text == "*"))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Ident)
            vars.insert(t[j].text);
    }
    if (vars.empty())
        return;

    // Pass 2: range-for over a tracked variable, or .begin()-family.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind == TokKind::Ident && t[i].text == "for" &&
            i + 1 < t.size() && t[i + 1].text == "(") {
            std::size_t close = skipBalanced(t, i + 1, "(", ")");
            // Find the top-level ':' inside the for-parens.
            int depth = 0;
            for (std::size_t j = i + 2; j + 1 < close; ++j) {
                if (t[j].kind == TokKind::Punct) {
                    if (t[j].text == "(")
                        ++depth;
                    else if (t[j].text == ")")
                        --depth;
                    else if (t[j].text == ":" && depth == 0) {
                        for (std::size_t k = j + 1; k + 1 < close;
                             ++k) {
                            if (t[k].kind == TokKind::Ident &&
                                vars.count(t[k].text) &&
                                !suppressed(scan, "D2", t[k].line)) {
                                out.push_back(
                                    {"D2", scan.path, t[k].line,
                                     "iteration over unordered "
                                     "container '" +
                                         t[k].text +
                                         "' in result-affecting code",
                                     ruleHint("D2")});
                                break;
                            }
                        }
                        break;
                    }
                }
            }
            continue;
        }
        if (t[i].kind == TokKind::Ident && vars.count(t[i].text) &&
            i + 2 < t.size() && t[i + 1].kind == TokKind::Punct &&
            t[i + 1].text == "." && t[i + 2].kind == TokKind::Ident) {
            const std::string& m = t[i + 2].text;
            if ((m == "begin" || m == "cbegin" || m == "rbegin" ||
                 m == "end" || m == "cend" || m == "rend") &&
                !suppressed(scan, "D2", t[i].line))
                out.push_back({"D2", scan.path, t[i].line,
                               "iterator over unordered container '" +
                                   t[i].text +
                                   "' in result-affecting code",
                               ruleHint("D2")});
        }
    }
}

// ---------------------------------------------------------------------
// D4: metric-name literals must not contain '_'
// ---------------------------------------------------------------------

const std::set<std::string>&
statSetAccessors()
{
    static const std::set<std::string> kSet = {
        "set", "incr", "get", "has", "sumPrefix", "mergePrefixed"};
    return kSet;
}

/**
 * Keys of `\"key\":` patterns embedded in a string literal's source
 * text — the hand-built JSON of the wire format (stream frames, the
 * event log), where a snake_case key would leak into the protocol.
 */
std::vector<std::string>
embeddedWireKeys(const std::string& lit)
{
    std::vector<std::string> keys;
    std::size_t i = 0;
    for (;;) {
        std::size_t open = lit.find("\\\"", i);
        if (open == std::string::npos)
            break;
        std::size_t close = lit.find("\\\"", open + 2);
        if (close == std::string::npos)
            break;
        if (close + 2 < lit.size() && lit[close + 2] == ':') {
            keys.push_back(lit.substr(open + 2, close - open - 2));
            i = close + 3;
        } else {
            i = open + 2;
        }
    }
    return keys;
}

/**
 * The embedded-key check applies where camelCase wire formats are
 * built by hand: the serving layer (frames, event log) and the
 * metrics exporters (wgmetrics jsonl). The offline report JSON
 * (report/export.cc) is a distinct, historically snake_case schema.
 */
bool
wireKeyScoped(const std::string& path)
{
    return path.find("serve/") != std::string::npos ||
           path.find("metrics/") != std::string::npos;
}

void
checkD4(const FileScan& scan, std::vector<Violation>& out)
{
    const std::vector<Token>& t = scan.tokens;
    // Embedded wire keys: every string literal in scoped files, no
    // call context required — a key is a key wherever it is built.
    if (wireKeyScoped(scan.path)) {
        for (const Token& tok : t) {
            if (tok.kind != TokKind::String)
                continue;
            for (const std::string& key : embeddedWireKeys(tok.text)) {
                if (key.find('_') != std::string::npos &&
                    !suppressed(scan, "D4", tok.line))
                    out.push_back({"D4", scan.path, tok.line,
                                   "embedded wire key \"" + key +
                                       "\" contains '_'",
                                   ruleHint("D4")});
            }
        }
    }
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != TokKind::Punct ||
            (t[i].text != "." && t[i].text != "->"))
            continue;
        if (t[i + 1].kind != TokKind::Ident ||
            !statSetAccessors().count(t[i + 1].text))
            continue;
        if (t[i + 2].kind != TokKind::Punct || t[i + 2].text != "(")
            continue;
        // Scan the first argument expression only.
        std::size_t close = skipBalanced(t, i + 2, "(", ")");
        int depth = 0;
        for (std::size_t j = i + 3; j + 1 < close; ++j) {
            if (t[j].kind == TokKind::Punct) {
                if (t[j].text == "(")
                    ++depth;
                else if (t[j].text == ")")
                    --depth;
                else if (t[j].text == "," && depth == 0)
                    break;
            }
            if (t[j].kind == TokKind::String &&
                t[j].text.find('_') != std::string::npos &&
                !suppressed(scan, "D4", t[j].line))
                out.push_back({"D4", scan.path, t[j].line,
                               "metric name literal " + t[j].text +
                                   " contains '_'",
                               ruleHint("D4")});
        }
    }
}

// ---------------------------------------------------------------------
// H1: header hygiene
// ---------------------------------------------------------------------

void
checkH1(const FileScan& scan, std::vector<Violation>& out)
{
    if (!scan.isHeader)
        return;
    if (!scan.pragmaOnce && !suppressed(scan, "H1", 1))
        out.push_back({"H1", scan.path, 1,
                       "header is missing '#pragma once'",
                       ruleHint("H1")});
    const std::vector<Token>& t = scan.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind == TokKind::Ident && t[i].text == "using" &&
            t[i + 1].kind == TokKind::Ident &&
            t[i + 1].text == "namespace" &&
            !suppressed(scan, "H1", t[i].line))
            out.push_back({"H1", scan.path, t[i].line,
                           "'using namespace' in a header",
                           ruleHint("H1")});
    }
}

// ---------------------------------------------------------------------
// Body semantics for C2: lock guards and field writes
// ---------------------------------------------------------------------

struct WriteSite
{
    std::string name;
    int line = 0;
    bool allowC2 = false;
};

struct BodySemantics
{
    bool hasGuard = false; ///< body declares a RAII lock guard
    std::vector<WriteSite> writes;
};

const std::set<std::string>&
raiiGuardTypes()
{
    static const std::set<std::string> kSet = {
        "MutexLock", "lock_guard", "unique_lock", "scoped_lock",
        "shared_lock"};
    return kSet;
}

bool
fieldLikeName(const std::string& s)
{
    return s.size() > 1 && s.back() == '_';
}

/**
 * One pass over a function body: RAII guards and direct writes to
 * '_'-suffixed names (assignment, compound assignment, ++/--; mutating
 * METHOD calls are deliberately out of scope — see DESIGN.md §18).
 */
BodySemantics
analyzeBody(const FileScan& scan, const FunctionDef& def)
{
    BodySemantics sem;
    const std::vector<Token>& t = scan.tokens;
    const std::size_t b = def.bodyBegin;
    const std::size_t e =
        def.bodyEnd < t.size() ? def.bodyEnd : t.size();

    static const std::set<std::string> kCompoundOps = {
        "+", "-", "*", "/", "%", "&", "|", "^"};

    for (std::size_t i = b; i < e; ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string& name = t[i].text;
        if (raiiGuardTypes().count(name))
            sem.hasGuard = true;

        const bool memberAccess =
            i > b && t[i - 1].kind == TokKind::Punct &&
            (t[i - 1].text == "." || t[i - 1].text == "->");

        // Direct writes to '_'-suffixed (field-convention) names.
        if (!fieldLikeName(name) || memberAccess)
            continue;
        bool write = false;
        if (i + 2 < e && t[i + 1].kind == TokKind::Punct) {
            const std::string& p1 = t[i + 1].text;
            const std::string& p2 = t[i + 2].text;
            if (p1 == "=" && p2 != "=")
                write = true; // name = ...
            else if (kCompoundOps.count(p1) && p2 == "=" &&
                     !(i + 3 < e && t[i + 3].text == "="))
                write = true; // name += ... (not name <op>==)
            else if ((p1 == "+" && p2 == "+") ||
                     (p1 == "-" && p2 == "-"))
                write = true; // name++
        }
        if (!write && i >= b + 2 && t[i - 1].kind == TokKind::Punct &&
            t[i - 2].kind == TokKind::Punct &&
            ((t[i - 1].text == "+" && t[i - 2].text == "+") ||
             (t[i - 1].text == "-" && t[i - 2].text == "-")) &&
            !(i + 1 < e && t[i + 1].kind == TokKind::Punct &&
              (t[i + 1].text == "." || t[i + 1].text == "->")))
            write = true; // ++name (but not ++name->member)
        if (write) {
            WriteSite w;
            w.name = name;
            w.line = t[i].line;
            w.allowC2 = suppressed(scan, "C2", t[i].line);
            sem.writes.push_back(w);
        }
    }
    return sem;
}

// ---------------------------------------------------------------------
// C2: cross-TU unlocked writes to lock-guarded fields
// ---------------------------------------------------------------------

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

void
checkC2(const std::vector<FileScan>& scans, const Index& index,
        const std::vector<BodySemantics>& sems,
        std::vector<Violation>& out)
{
    // Group method definitions (inline and out-of-line, across every
    // TU) by their class.
    std::map<std::string, std::vector<std::size_t>> byClass;
    for (std::size_t d = 0; d < index.defs.size(); ++d)
        if (!index.defs[d].qualifier.empty())
            byClass[index.defs[d].qualifier].push_back(d);

    static const ClassInfo kNoInfo;
    for (const auto& [className, defIdxs] : byClass) {
        auto cit = index.classes.find(className);
        const ClassInfo& info =
            cit == index.classes.end() ? kNoInfo : cit->second;

        // Candidate fields: annotated WG_GUARDED_BY, plus any
        // '_'-suffixed name some method writes under a RAII guard —
        // evidence the class treats it as lock-protected.
        std::set<std::string> candidates = info.guardedFields;
        for (std::size_t d : defIdxs)
            if (sems[d].hasGuard && !index.defs[d].isCtorDtor)
                for (const WriteSite& w : sems[d].writes)
                    candidates.insert(w.name);
        if (candidates.empty())
            continue;

        for (std::size_t d : defIdxs) {
            const FunctionDef& def = index.defs[d];
            const BodySemantics& sem = sems[d];
            // Sanctioned unlocked writers: constructors/destructors
            // (the object is not shared yet / any more), methods that
            // guard, and methods whose contract says the caller holds
            // the lock (WG_REQUIRES anywhere, or the *Locked naming
            // convention).
            if (sem.hasGuard || def.isCtorDtor ||
                def.requiresLock ||
                endsWith(def.name, "Locked") ||
                info.requiresFns.count(def.name))
                continue;
            const FileScan& scan = scans[def.scanIdx];
            for (const WriteSite& w : sem.writes) {
                if (!candidates.count(w.name) || w.allowC2)
                    continue;
                out.push_back(
                    {"C2", scan.path, w.line,
                     "unlocked write to '" + w.name + "' of " +
                         className +
                         ", which is lock-guarded elsewhere",
                     ruleHint("C2")});
            }
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

void
checkFile(const FileScan& scan, std::vector<Violation>& out)
{
    checkD1(scan, out);
    checkD2(scan, out);
    checkD4(scan, out);
    checkH1(scan, out);
}

void
checkTree(const std::vector<FileScan>& scans, const Index& index,
          std::vector<Violation>& out)
{
    std::vector<BodySemantics> sems;
    sems.reserve(index.defs.size());
    for (const FunctionDef& def : index.defs)
        sems.push_back(analyzeBody(scans[def.scanIdx], def));

    checkC2(scans, index, sems, out);
}

} // namespace wglint
