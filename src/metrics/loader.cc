#include "loader.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace wg::metrics {

namespace {

/**
 * Input limits of every loaded JSON document: the DOM's defaults. The
 * largest files wgsim and wgctl write stay far inside them: a final
 * registry line holds about 230 members (64 SMs, --profile); a --json
 * file nests six levels deep and holds one result per cell of the run
 * (108 for a wgctl sweep of every bench and technique), each with
 * about 160 registry members and two 65-bin idle histograms. Nesting
 * past maxDepth is a clean parse error, never a stack overflow.
 */
constexpr JsonLimits kLoaderLimits{};

/** Emit every numeric/boolean leaf below @p v under dotted @p key. */
void
flatten(const Json& v, const std::string& key, StatSet& out)
{
    auto child = [&key](const std::string& name) {
        return key.empty() ? name : key + "." + name;
    };
    switch (v.kind()) {
      case Json::Kind::Object:
        for (const auto& [name, member] : v.members())
            flatten(member, child(name), out);
        break;
      case Json::Kind::Array:
        for (std::size_t i = 0; i < v.items().size(); ++i)
            flatten(v.items()[i], child(std::to_string(i)), out);
        break;
      case Json::Kind::Number:
        if (!key.empty())
            out.set(key, v.asDouble());
        break;
      case Json::Kind::Bool:
        if (!key.empty())
            out.set(key, v.asBool() ? 1.0 : 0.0);
        break;
      case Json::Kind::String:
      case Json::Kind::Null:
        break;
    }
}

/** Dotted registry name from a Prometheus sample name. */
std::string
fromPromName(const std::string& name)
{
    std::string out =
        name.compare(0, 3, "wg_") == 0 ? name.substr(3) : name;
    for (char& c : out)
        if (c == '_')
            c = '.';
    return out;
}

/** The number starting at @p at in @p line; false when there is none. */
bool
parseSampleValue(const std::string& line, std::size_t at, double& out)
{
    const char* start = line.c_str() + at;
    char* end = nullptr;
    out = std::strtod(start, &end);
    return end != start;
}

bool
parseProm(const std::string& content, StatSet& out, std::string& error)
{
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            error = "malformed exposition line: " + line;
            return false;
        }
        double v = 0.0;
        if (!parseSampleValue(line, space + 1, v)) {
            error = "bad sample value: " + line;
            return false;
        }
        out.set(fromPromName(line.substr(0, space)), v);
    }
    return true;
}

bool
parseFinalCsv(const std::string& content, StatSet& out,
              std::string& error)
{
    std::istringstream is(content);
    std::string line;
    bool in_final = false;
    bool seen_final = false;
    while (std::getline(is, line)) {
        if (line.rfind("# final", 0) == 0) {
            in_final = true;
            seen_final = true;
            continue;
        }
        if (!in_final || line.empty() || line[0] == '#' ||
            line == "name,value")
            continue;
        std::size_t comma = line.rfind(',');
        if (comma == std::string::npos) {
            error = "malformed final-section line: " + line;
            return false;
        }
        double v = 0.0;
        if (!parseSampleValue(line, comma + 1, v)) {
            error = "bad final-section value: " + line;
            return false;
        }
        out.set(line.substr(0, comma), v);
    }
    if (!seen_final) {
        error = "no '# final' section in metrics CSV";
        return false;
    }
    return true;
}

bool
parseJsonl(const std::string& content, StatSet& out, std::string& error)
{
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"type\":\"final\"") == std::string::npos)
            continue;
        Json doc;
        if (!Json::parse(line, doc, error, kLoaderLimits))
            return false;
        // Strip the enclosing {"type":"final","stats":{...}} level.
        if (const Json* stats = doc.find("stats"))
            flatten(*stats, "", out);
        return true;
    }
    error = "no final-registry line in metrics JSONL";
    return false;
}

} // namespace

bool
flattenJson(const std::string& json, StatSet& out, std::string& error)
{
    Json doc;
    if (!Json::parse(json, doc, error, kLoaderLimits))
        return false;
    flatten(doc, "", out);
    return true;
}

bool
parseStatSet(const std::string& content, StatSet& out,
             std::string& error)
{
    std::size_t first = content.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
        error = "empty input";
        return false;
    }
    if (content[first] == '{') {
        // wgmetrics JSONL (typed lines) or a plain JSON document.
        std::size_t eol = content.find('\n', first);
        std::string head = content.substr(
            first, eol == std::string::npos ? std::string::npos
                                            : eol - first);
        if (head.find("\"wgmetrics\"") != std::string::npos)
            return parseJsonl(content, out, error);
        return flattenJson(content, out, error);
    }
    if (content.compare(first, 11, "# wgmetrics") == 0)
        return parseFinalCsv(content, out, error);
    // Everything else: OpenMetrics text exposition.
    return parseProm(content, out, error);
}

StatSet
loadStatSet(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "' for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    StatSet out;
    std::string error;
    if (!parseStatSet(buf.str(), out, error))
        fatal("cannot parse '", path, "': ", error);
    return out;
}

} // namespace wg::metrics
