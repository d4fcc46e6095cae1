#include "args.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace wg {

ArgParser::ArgParser(std::string program, std::string description,
                     std::span<const FlagSpec> flags,
                     std::span<const FlagSpec> shared)
    : program_(std::move(program)), description_(std::move(description))
{
    for (std::span<const FlagSpec> table : {flags, shared}) {
        for (const FlagSpec& spec : table) {
            // Keep the default text exactly as written in the table
            // (the typed accessors parse it on demand), so --help
            // shows what the author wrote.
            const std::string def =
                spec.kind == FlagKind::Bool ? "false" : spec.def;
            if (!flags_.emplace(spec.name, Flag{spec.kind, def, spec.help,
                                                spec.max, def, false})
                     .second)
                panic("ArgParser: flag --", spec.name, " declared twice");
            order_.push_back(spec.name);
        }
    }
}

bool
ArgParser::parse(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_requested_ = true;
            std::fprintf(stdout, "%s", usage().c_str());
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }

        auto it = flags_.find(name);
        if (it == flags_.end()) {
            std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                         usage().c_str());
            return false;
        }
        Flag& flag = it->second;

        if (flag.kind == Kind::Bool) {
            flag.value = has_value ? value : "true";
        } else {
            if (!has_value) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "flag --%s needs a value\n",
                                 name.c_str());
                    return false;
                }
                value = argv[++i];
            }
            if (flag.kind != Kind::String) {
                // Validate numeric values eagerly.
                char* end = nullptr;
                long long integer = 0;
                errno = 0;
                if (flag.kind == Kind::Double)
                    std::strtod(value.c_str(), &end);
                else
                    integer = std::strtoll(value.c_str(), &end, 10);
                // A Count past LLONG_MAX is over its bound; an Int
                // there has no value the accessor could return.
                const bool overflow =
                    flag.kind != Kind::Double && errno == ERANGE;
                if (end == value.c_str() || *end != '\0' ||
                    (overflow && flag.kind == Kind::Int)) {
                    std::fprintf(stderr,
                                 "flag --%s: bad numeric value '%s'\n",
                                 name.c_str(), value.c_str());
                    return false;
                }
                if (flag.kind == Kind::Count && integer < 0) {
                    std::fprintf(stderr,
                                 "flag --%s: must not be negative, got "
                                 "'%s'\n",
                                 name.c_str(), value.c_str());
                    return false;
                }
                if (flag.kind == Kind::Count &&
                    (overflow || integer > flag.max)) {
                    std::fprintf(stderr,
                                 "flag --%s: must be at most %lld, got "
                                 "'%s'\n",
                                 name.c_str(),
                                 static_cast<long long>(flag.max),
                                 value.c_str());
                    return false;
                }
            }
            flag.value = value;
        }
        flag.given = true;
    }
    return true;
}

const ArgParser::Flag&
ArgParser::find(const std::string& name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        panic("ArgParser: flag --", name, " was never declared");
    if (it->second.kind != kind)
        panic("ArgParser: flag --", name, " accessed with wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string& name) const
{
    return find(name, Kind::String).value;
}

std::int64_t
ArgParser::getInt(const std::string& name) const
{
    return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

std::uint64_t
ArgParser::getCount(const std::string& name) const
{
    return std::strtoull(find(name, Kind::Count).value.c_str(), nullptr,
                         10);
}

double
ArgParser::getDouble(const std::string& name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

bool
ArgParser::getBool(const std::string& name) const
{
    return find(name, Kind::Bool).value == "true";
}

bool
ArgParser::given(const std::string& name) const
{
    auto it = flags_.find(name);
    return it != flags_.end() && it->second.given;
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [flags]\n";
    if (!description_.empty())
        os << description_ << "\n";
    os << "flags:\n";
    for (const std::string& name : order_) {
        const Flag& flag = flags_.at(name);
        os << "  --" << name;
        if (flag.kind != Kind::Bool)
            os << " <" << flag.def << ">";
        if (flag.kind == Kind::Count)
            os << " (max " << flag.max << ")";
        os << "\n      " << flag.help << "\n";
    }
    return os.str();
}

} // namespace wg
