#include "index.hh"

#include <algorithm>

namespace wglint {

namespace {

bool
isWgAttribute(const Token& tok)
{
    return tok.kind == TokKind::Ident &&
           tok.text.rfind("WG_", 0) == 0;
}

// ---------------------------------------------------------------------
// Class bodies: lock-discipline facts + inline method definitions
// ---------------------------------------------------------------------

/**
 * Walk one class body for C2 facts: WG_GUARDED_BY fields,
 * WG_REQUIRES method names (declarations suffice — a header contract
 * covers the out-of-line definition elsewhere), and inline method
 * definitions, which become FunctionDefs qualified by the class.
 */
void
indexClassBody(const FileScan& scan, const std::string& className,
               std::size_t open, std::size_t end, Index& index)
{
    const std::vector<Token>& t = scan.tokens;
    ClassInfo& cls = index.classes[className];
    std::size_t i = open + 1;
    while (i + 1 < end) {
        const Token& tok = t[i];
        if (tok.kind == TokKind::Ident && i + 1 < end &&
            t[i + 1].kind == TokKind::Punct && t[i + 1].text == ":" &&
            (tok.text == "public" || tok.text == "private" ||
             tok.text == "protected")) {
            i += 2;
            continue;
        }
        if (tok.kind == TokKind::Punct && tok.text == ";") {
            ++i;
            continue;
        }
        // Nested class/struct definition: recurse under its own name.
        if (tok.kind == TokKind::Ident &&
            (tok.text == "struct" || tok.text == "class") &&
            i + 1 < end && t[i + 1].kind == TokKind::Ident) {
            std::size_t j = i + 2;
            while (j < end && !(t[j].kind == TokKind::Punct &&
                                (t[j].text == "{" || t[j].text == ";")))
                ++j;
            if (j < end && t[j].text == "{") {
                std::size_t close = skipBalanced(t, j, "{", "}");
                indexClassBody(scan, t[i + 1].text, j, close - 1,
                               index);
                i = close;
                continue;
            }
            i = j + 1;
            continue;
        }
        // Alias / friend / enum / static member: skip the statement.
        if (tok.kind == TokKind::Ident &&
            (tok.text == "enum" || tok.text == "union" ||
             tok.text == "using" || tok.text == "typedef" ||
             tok.text == "friend" || tok.text == "static")) {
            while (i < end && !(t[i].kind == TokKind::Punct &&
                                t[i].text == ";")) {
                if (t[i].kind == TokKind::Punct && t[i].text == "{")
                    i = skipBalanced(t, i, "{", "}") - 1;
                ++i;
            }
            ++i;
            continue;
        }
        // One member statement: field declaration, method
        // declaration, or inline method definition.
        std::size_t stmtBegin = i;
        std::string fnName;
        bool isFunction = false;
        bool requiresLock = false;
        bool sawAssign = false;
        bool tilde = false;
        while (i < end) {
            const Token& cur = t[i];
            if (cur.kind == TokKind::Ident &&
                cur.text == "WG_REQUIRES")
                requiresLock = true;
            if (cur.kind == TokKind::Punct && cur.text == "=" &&
                !isFunction)
                sawAssign = true;
            // WG_* attribute groups are transparent wherever they
            // appear in the statement (a field's type may contain
            // parentheses — std::function<void()> — so this must not
            // depend on the function-shape state below). For
            // WG_GUARDED_BY the declarator name is the ident right
            // before the attribute.
            if (cur.kind == TokKind::Punct && cur.text == "(" &&
                i > stmtBegin && isWgAttribute(t[i - 1])) {
                if (t[i - 1].text == "WG_GUARDED_BY" &&
                    i >= 2 + stmtBegin &&
                    t[i - 2].kind == TokKind::Ident)
                    cls.guardedFields.insert(t[i - 2].text);
                i = skipBalanced(t, i, "(", ")");
                continue;
            }
            if (cur.kind == TokKind::Punct && cur.text == "(" &&
                !isFunction && !sawAssign) {
                if (i > stmtBegin && t[i - 1].kind == TokKind::Ident) {
                    fnName = t[i - 1].text;
                    if (i >= 2 + stmtBegin &&
                        t[i - 2].kind == TokKind::Punct &&
                        t[i - 2].text == "~")
                        tilde = true;
                }
                isFunction = true;
                i = skipBalanced(t, i, "(", ")");
                continue;
            }
            if (cur.kind == TokKind::Punct && cur.text == "{") {
                std::size_t close = skipBalanced(t, i, "{", "}");
                if (isFunction) {
                    if (!fnName.empty() &&
                        fnName.rfind("WG_", 0) != 0) {
                        FunctionDef def;
                        def.name = fnName;
                        def.qualifier = className;
                        def.line = cur.line;
                        def.requiresLock = requiresLock;
                        def.isCtorDtor =
                            tilde || fnName == className;
                        def.bodyBegin = i;
                        def.bodyEnd = close;
                        index.defs.push_back(def);
                        if (requiresLock)
                            cls.requiresFns.insert(fnName);
                    }
                    i = close;
                    if (i < end && t[i].kind == TokKind::Punct &&
                        t[i].text == ";")
                        ++i;
                    break;
                }
                i = close; // brace initializer
                continue;
            }
            if (cur.kind == TokKind::Punct && cur.text == ";") {
                if (isFunction && requiresLock && !fnName.empty())
                    cls.requiresFns.insert(fnName);
                ++i;
                break;
            }
            ++i;
        }
    }
}

// ---------------------------------------------------------------------
// Namespace-scope walk
// ---------------------------------------------------------------------

void
indexScopes(const FileScan& scan, std::size_t begin, std::size_t end,
            Index& index)
{
    const std::vector<Token>& t = scan.tokens;
    std::size_t i = begin;
    while (i < end) {
        const Token& tok = t[i];
        if (tok.kind == TokKind::Ident && tok.text == "namespace") {
            // `namespace a::b {` or anonymous: find the brace.
            std::size_t j = i + 1;
            while (j < end && !(t[j].kind == TokKind::Punct &&
                                (t[j].text == "{" || t[j].text == ";")))
                ++j;
            if (j < end && t[j].text == "{") {
                std::size_t close = skipBalanced(t, j, "{", "}");
                indexScopes(scan, j + 1, close - 1, index);
                i = close;
                continue;
            }
            i = j + 1;
            continue;
        }
        if (tok.kind == TokKind::Ident &&
            (tok.text == "struct" || tok.text == "class") &&
            i + 1 < end && t[i + 1].kind == TokKind::Ident) {
            // Skip attributes between keyword and name, with or
            // without arguments (`class WG_CAPABILITY("mutex") Mutex`,
            // `class WG_SCOPED_CAPABILITY MutexLock`).
            std::size_t nameAt = i + 1;
            while (nameAt < end && isWgAttribute(t[nameAt])) {
                ++nameAt;
                if (nameAt < end &&
                    t[nameAt].kind == TokKind::Punct &&
                    t[nameAt].text == "(")
                    nameAt = skipBalanced(t, nameAt, "(", ")");
            }
            if (nameAt >= end || t[nameAt].kind != TokKind::Ident) {
                i = nameAt;
                continue;
            }
            const std::string name = t[nameAt].text;
            // Find the body brace (skipping base-clause tokens) or a
            // `;`/`(`/ident meaning forward-decl or parameter use.
            std::size_t j = nameAt + 1;
            while (j < end && !(t[j].kind == TokKind::Punct &&
                                (t[j].text == "{" || t[j].text == ";" ||
                                 t[j].text == "(" || t[j].text == ")" ||
                                 t[j].text == ",")))
                ++j;
            if (j < end && t[j].text == "{") {
                std::size_t close = skipBalanced(t, j, "{", "}");
                indexClassBody(scan, name, j, close - 1, index);
                i = close;
                continue;
            }
            i = j;
            continue;
        }
        // Function definition: ident `(` ... `)` [specifiers] `{`.
        if (tok.kind == TokKind::Punct && tok.text == "(" && i > 0 &&
            t[i - 1].kind == TokKind::Ident &&
            !isWgAttribute(t[i - 1])) {
            std::string fn = t[i - 1].text;
            std::string qualifier;
            bool tilde = false;
            std::size_t qualAt = i - 2;
            if (i >= 2 && t[i - 2].kind == TokKind::Punct &&
                t[i - 2].text == "~") {
                tilde = true;
                qualAt = i - 3;
            }
            if (qualAt >= 1 && qualAt < t.size() &&
                t[qualAt].kind == TokKind::Punct &&
                t[qualAt].text == "::" &&
                t[qualAt - 1].kind == TokKind::Ident)
                qualifier = t[qualAt - 1].text;
            std::size_t afterParens = skipBalanced(t, i, "(", ")");
            // Scan past trailing specifiers — idents, each optionally
            // carrying a parenthesised argument group (const,
            // noexcept(...), WG_REQUIRES(mu_)) — to `{`, `;` or
            // something that rules out a definition.
            std::size_t j = afterParens;
            bool requiresLock = false;
            while (j < end && t[j].kind == TokKind::Ident) {
                if (t[j].text == "WG_REQUIRES")
                    requiresLock = true;
                ++j;
                if (j < end && t[j].kind == TokKind::Punct &&
                    t[j].text == "(")
                    j = skipBalanced(t, j, "(", ")");
            }
            if (j < end && t[j].kind == TokKind::Punct &&
                t[j].text == "{") {
                std::size_t close = skipBalanced(t, j, "{", "}");
                FunctionDef def;
                def.name = fn;
                def.qualifier = qualifier;
                def.line = t[i - 1].line;
                def.requiresLock = requiresLock;
                def.isCtorDtor = tilde || fn == qualifier;
                def.bodyBegin = j;
                def.bodyEnd = close;
                index.defs.push_back(def);
                if (requiresLock && !qualifier.empty())
                    index.classes[qualifier].requiresFns.insert(fn);
                i = close;
                continue;
            }
            i = afterParens;
            continue;
        }
        ++i;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

void
indexFile(const FileScan& scan, std::size_t scanIdx, Index& index)
{
    const std::size_t first = index.defs.size();
    indexScopes(scan, 0, scan.tokens.size(), index);
    for (std::size_t d = first; d < index.defs.size(); ++d)
        index.defs[d].scanIdx = scanIdx;
}

} // namespace wglint
