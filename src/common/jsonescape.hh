/**
 * @file
 * The one JSON string escaper: every hand-built JSON emitter (the
 * serve DOM, report export, wglint's jsonl) goes through it.
 */

#pragma once

#include <string>

namespace wg {

/**
 * Escape @p s for embedding in a JSON string literal: quote and
 * backslash, the short escapes (\n \t \r \b \f) and every other byte
 * below 0x20 as \u00XX. Bytes >= 0x80 pass through (UTF-8 stays as is).
 */
std::string jsonEscape(const std::string& s);

} // namespace wg
