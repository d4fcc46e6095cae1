/**
 * @file
 * wglint rules, split by the data they need:
 *
 * checkFile — the per-file rules (D1 direct sites, D2, D4, H1). They
 * read exactly one FileScan, so the driver may run them from worker
 * threads, one file per task, with no shared state.
 *
 * checkTree — the whole-tree rules (C2 and the
 * interprocedural extension of D1). They run once, serially, after
 * every per-file index has been merged in sorted-path order, so their
 * output is deterministic and independent of scan parallelism.
 *
 * Interprocedural D1: a function whose body uses a banned source
 * without a suppression taints its name; taint propagates caller-ward
 * over the cross-TU call graph, and every call site that reaches a
 * tainted function is flagged with the full chain. Suppressing the
 * direct site (or a call site) stops propagation through it — the
 * suppression is a reviewed claim that the value does not affect
 * results, and that claim covers callers too. The serve/ timeout
 * exemption is re-applied per caller, so a serve/ helper's
 * steady_clock never taints serve/ callers but stays visible if code
 * outside serve/ ever calls in.
 */

#pragma once

#include <vector>

#include "index.hh"
#include "report.hh"
#include "tokenizer.hh"

namespace wglint {

/** Per-file rules: D1 (direct sites), D2, D4, H1. Thread-safe. */
void checkFile(const FileScan& scan, std::vector<Violation>& out);

/**
 * Whole-tree rules over the merged index: C2 and cross-function D1
 * taint. `scans` must be the vector the FunctionDef::scanIdx values
 * refer to.
 */
void checkTree(const std::vector<FileScan>& scans, const Index& index,
               std::vector<Violation>& out);

} // namespace wglint
