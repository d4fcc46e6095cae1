/**
 * @file
 * wglint tokenizer: a lightweight C++ lexer (no libclang) producing
 * the token stream every rule operates on, plus the comment-derived
 * suppression metadata (`wglint:allow(RULE)`).
 *
 * Recovery contract: a non-raw string or char literal missing its
 * closing quote terminates at the end of its line instead of
 * swallowing the rest of the file — a malformed literal must not mask
 * violations on later lines (pinned by the malformed-source corpus in
 * tests/wglint_fixtures/malformed/). Raw strings are the one
 * exception: their delimiter is the only legal terminator, so an
 * unterminated raw string legitimately runs to end of file.
 */

#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wglint {

enum class TokKind { Ident, Number, String, CharLit, Punct };

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0;
};

/** Scan state for one file: tokens plus comment-derived metadata. */
struct FileScan
{
    std::string path;       ///< display path (as passed / walked)
    std::vector<Token> tokens;
    /** line -> rules allowed on that line (and the line below it). */
    std::map<int, std::set<std::string>> allows;
    bool pragmaOnce = false;
    bool isHeader = false;
};

/**
 * Tokenize one file. Preprocessor lines are consumed whole (honouring
 * backslash continuations) and only mined for `#pragma once`; comments
 * are mined for suppression markers. @return false when unreadable.
 */
bool tokenize(const std::filesystem::path& file,
              const std::string& display, FileScan& scan);

/** True when `rule` is suppressed at `line` (marker there or above). */
bool suppressed(const FileScan& scan, const std::string& rule,
                int line);

/**
 * @p i points at the opening token; @return index one past the
 * matching close (or tokens.size() when unbalanced).
 */
std::size_t skipBalanced(const std::vector<Token>& t, std::size_t i,
                         const std::string& open,
                         const std::string& close);

} // namespace wglint
