/**
 * @file
 * wglint rules, split by the data they need:
 *
 * checkFile — the per-file rules (D1, D2, D4, H1). Each reads exactly
 * one FileScan.
 *
 * checkTree — the whole-tree rule C2. It runs once, after every file
 * has been indexed in sorted-path order.
 *
 * D1 is a per-site rule. A `wglint:allow(D1)` suppression, or the
 * serve/ timeout exemption, is a reviewed claim that the value does
 * not affect results, and the claim covers every caller of the code
 * it sanctions.
 */

#pragma once

#include <vector>

#include "index.hh"
#include "report.hh"
#include "tokenizer.hh"

namespace wglint {

/** Per-file rules: D1, D2, D4, H1. */
void checkFile(const FileScan& scan, std::vector<Violation>& out);

/**
 * Whole-tree rule C2 over the index. `scans` must be the vector the
 * FunctionDef::scanIdx values refer to.
 */
void checkTree(const std::vector<FileScan>& scans, const Index& index,
               std::vector<Violation>& out);

} // namespace wglint
