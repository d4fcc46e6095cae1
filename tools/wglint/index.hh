/**
 * @file
 * wglint cross-TU index. One FileIndex is built per file (safe to do
 * in parallel, it only reads that file's tokens); the driver then
 * merges them into a single Index in sorted-path order, so the merged
 * view is deterministic and identical between serial and parallel
 * scans. The index powers every cross-file rule:
 *
 *   - D1 (interprocedural): every function definition with its body
 *     token range, so the rules layer can build a call graph and
 *     propagate nondeterminism taint across translation units.
 *   - C2: per-class lock discipline — WG_GUARDED_BY fields and
 *     WG_REQUIRES-annotated method names (declarations count, so a
 *     header contract covers the out-of-line definition in another
 *     file).
 */

#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tokenizer.hh"

namespace wglint {

// ---------------------------------------------------------------------
// Concurrency + call-graph facts
// ---------------------------------------------------------------------

/**
 * One function definition (free, out-of-line member, or inline member)
 * with its body token range. Semantic passes (taint sources, call
 * edges, guarded writes) re-read the range from the owning FileScan —
 * the index stores only structure, which keeps per-file indexing
 * independent of every other file.
 */
struct FunctionDef
{
    std::string name;      ///< unqualified name
    std::string qualifier; ///< enclosing/qualifying class, "" = free
    int line = 0;
    bool requiresLock = false; ///< WG_REQUIRES(...) on the definition
    bool isCtorDtor = false;
    std::size_t scanIdx = 0;   ///< into the driver's FileScan vector
    std::size_t bodyBegin = 0; ///< token index of the body '{'
    std::size_t bodyEnd = 0;   ///< one past the matching '}'
};

/** Per-class lock-discipline facts (merged across TUs by name). */
struct ClassInfo
{
    std::set<std::string> guardedFields; ///< WG_GUARDED_BY(...) fields
    std::set<std::string> requiresFns;   ///< WG_REQUIRES(...) methods
};

/** Everything indexed from ONE file; built independently per file. */
struct FileIndex
{
    std::map<std::string, ClassInfo> classes;
    std::vector<FunctionDef> defs; ///< scanIdx unset until merge
};

/** The merged, whole-tree view. */
struct Index
{
    std::map<std::string, ClassInfo> classes;
    std::vector<FunctionDef> defs;

    /**
     * Fold one file's facts in. MUST be called in sorted-path order:
     * the defs vector order seeds every deterministic tie-break
     * downstream.
     */
    void merge(FileIndex&& fi, std::size_t scanIdx);
};

/** Build the per-file index from a tokenized scan. */
void indexFile(const FileScan& scan, FileIndex& out);

} // namespace wglint
