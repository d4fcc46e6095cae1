#include "tokenizer.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace wglint {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Record `wglint:allow(A,B)` markers found in a comment. */
void
parseAllows(const std::string& comment, int line, FileScan& scan)
{
    const std::string marker = "wglint:allow(";
    std::size_t pos = 0;
    while ((pos = comment.find(marker, pos)) != std::string::npos) {
        pos += marker.size();
        std::size_t end = comment.find(')', pos);
        if (end == std::string::npos)
            return;
        std::string inside = comment.substr(pos, end - pos);
        std::string rule;
        std::istringstream ss(inside);
        while (std::getline(ss, rule, ',')) {
            std::size_t b = rule.find_first_not_of(" \t");
            std::size_t e = rule.find_last_not_of(" \t");
            if (b != std::string::npos)
                scan.allows[line].insert(rule.substr(b, e - b + 1));
        }
        pos = end;
    }
}

} // namespace

bool
tokenize(const fs::path& file, const std::string& display,
         FileScan& scan)
{
    std::ifstream in(file, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string src = buf.str();

    scan.path = display;
    const std::string ext = file.extension().string();
    scan.isHeader = ext == ".hh" || ext == ".h" || ext == ".hpp";

    std::size_t i = 0;
    const std::size_t n = src.size();
    int line = 1;
    bool atLineStart = true;

    auto advance = [&](std::size_t k) {
        for (std::size_t j = 0; j < k && i < n; ++j, ++i)
            if (src[i] == '\n') {
                ++line;
                atLineStart = true;
            }
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            advance(1);
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: consume the logical line.
        if (c == '#' && atLineStart) {
            std::size_t start = i;
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
                    advance(2);
                    continue;
                }
                if (src[i] == '\n')
                    break;
                ++i;
            }
            std::string directive = src.substr(start, i - start);
            // Normalise interior whitespace for the pragma check.
            std::string squashed;
            for (char d : directive)
                if (!std::isspace(static_cast<unsigned char>(d)))
                    squashed += d;
            if (squashed == "#pragmaonce")
                scan.pragmaOnce = true;
            continue;
        }
        atLineStart = false;
        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t start = i;
            int startLine = line;
            while (i < n && src[i] != '\n')
                ++i;
            parseAllows(src.substr(start, i - start), startLine, scan);
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t start = i;
            int startLine = line;
            advance(2);
            while (i < n &&
                   !(src[i] == '*' && i + 1 < n && src[i + 1] == '/'))
                advance(1);
            advance(2);
            parseAllows(src.substr(start, i - start), startLine, scan);
            continue;
        }
        // Raw string literal, with optional encoding prefix (R"...",
        // LR"...", uR"...", UR"...", u8R"..."), custom delims included.
        // An unterminated raw string runs to EOF by design: the
        // delimiter is its only legal terminator.
        std::size_t rawR = std::string::npos;
        if (c == 'R')
            rawR = i;
        else if ((c == 'L' || c == 'u' || c == 'U') && i + 1 < n &&
                 src[i + 1] == 'R')
            rawR = i + 1;
        else if (c == 'u' && i + 2 < n && src[i + 1] == '8' &&
                 src[i + 2] == 'R')
            rawR = i + 2;
        if (rawR != std::string::npos && rawR + 1 < n &&
            src[rawR + 1] == '"') {
            std::size_t d0 = rawR + 2;
            std::size_t paren = src.find('(', d0);
            if (paren != std::string::npos) {
                std::string delim = ")";
                delim.append(src, d0, paren - d0);
                delim.push_back('"');
                std::size_t close = src.find(delim, paren + 1);
                std::size_t end = close == std::string::npos
                                      ? n
                                      : close + delim.size();
                int startLine = line;
                std::string text = src.substr(i, end - i);
                advance(end - i);
                scan.tokens.push_back(
                    {TokKind::String, text, startLine});
                continue;
            }
        }
        // String / char literal. An unescaped newline before the
        // closing quote means the literal is malformed (the program
        // would not compile); stop the token at the line break so the
        // rest of the file still gets scanned — a typo must not mask
        // every violation below it. The newline itself is left for
        // the main loop, keeping line accounting in one place.
        if (c == '"' || c == '\'') {
            char quote = c;
            std::size_t start = i;
            int startLine = line;
            advance(1);
            while (i < n && src[i] != quote) {
                if (src[i] == '\n')
                    break;
                if (src[i] == '\\')
                    advance(1);
                advance(1);
            }
            if (i < n && src[i] == quote)
                advance(1);
            scan.tokens.push_back(
                {quote == '"' ? TokKind::String : TokKind::CharLit,
                 src.substr(start, i - start), startLine});
            continue;
        }
        // Identifier / keyword.
        if (identStart(c)) {
            std::size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            scan.tokens.push_back(
                {TokKind::Ident, src.substr(start, i - start), line});
            continue;
        }
        // Number.
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = i;
            while (i < n && (identChar(src[i]) || src[i] == '.' ||
                             src[i] == '\''))
                ++i;
            scan.tokens.push_back(
                {TokKind::Number, src.substr(start, i - start), line});
            continue;
        }
        // Punctuation; keep '::' and '->' fused, the rules use them.
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            scan.tokens.push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            scan.tokens.push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        scan.tokens.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return true;
}

bool
suppressed(const FileScan& scan, const std::string& rule, int line)
{
    for (int l : {line, line - 1}) {
        auto it = scan.allows.find(l);
        if (it != scan.allows.end() && it->second.count(rule))
            return true;
    }
    return false;
}

std::size_t
skipBalanced(const std::vector<Token>& t, std::size_t i,
             const std::string& open, const std::string& close)
{
    int depth = 0;
    const std::size_t n = t.size();
    for (; i < n; ++i) {
        if (t[i].kind != TokKind::Punct)
            continue;
        if (t[i].text == open)
            ++depth;
        else if (t[i].text == close && --depth == 0)
            return i + 1;
    }
    return n;
}

} // namespace wglint
