/**
 * @file
 * wglint cross-TU index for C2. The driver appends each file's facts
 * in sorted-path order, so the index is the same on every run:
 *
 *   - every function definition with its body token range, where C2
 *     looks for lock guards and field writes;
 *   - per-class lock discipline — WG_GUARDED_BY fields and
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

/**
 * One function definition (free, out-of-line member, or inline member)
 * with its body token range. C2 re-reads the range from the owning
 * FileScan for guards and writes; the index stores only structure.
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

/** The whole-tree view, filled one file at a time. */
struct Index
{
    std::map<std::string, ClassInfo> classes;
    std::vector<FunctionDef> defs;
};

/**
 * Append one tokenized file's facts to @p index. @p scanIdx is the
 * file's slot in the driver's FileScan vector.
 */
void indexFile(const FileScan& scan, std::size_t scanIdx, Index& index);

} // namespace wglint
