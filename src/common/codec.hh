/**
 * @file
 * Typed readers over the JSON DOM (common/json.hh) and the JSON codec
 * every listed struct (common/fields.hh) gets from its field list.
 * Error strings carry the dotted path to the offending member, and
 * decoding returns false with an actionable error instead of aborting.
 * The wire format, checkpoints, the serve client and the JSONL trace
 * reader all read through these.
 */

#pragma once

#include <limits>
#include <string>
#include <type_traits>

#include "common/fields.hh"
#include "common/json.hh"

namespace wg::codec {

// ----- typed field readers (error strings carry the dotted path) -----

/** Set @p error to "<path>: <what>"; always returns false. */
bool failAt(std::string& error, const std::string& path,
            const std::string& what);

/** Fetch member @p key of object @p obj into @p out. */
bool getMember(const Json& obj, const std::string& path, const char* key,
               const Json*& out, std::string& error);

/**
 * Fetch array member @p key; when @p size is non-zero the array must
 * have exactly that many elements.
 */
bool getArray(const Json& obj, const std::string& path, const char* key,
              std::size_t size, const Json*& out, std::string& error);

Json histogramToJson(const Histogram& h);
bool histogramFromJson(const Json& j, const std::string& path,
                       Histogram& out, std::string& error);

// ----- the codec derived from field lists -----

/**
 * Dotted location of a value being decoded. Segments point into the
 * caller's frames; the string is only built when an error is reported,
 * so decoding allocates nothing for paths.
 */
class JsonPath
{
  public:
    explicit JsonPath(const std::string& root) : root_(&root) {}
    JsonPath(const JsonPath& parent, const char* key)
        : parent_(&parent), key_(key)
    {
    }
    JsonPath(const JsonPath& parent, std::size_t index)
        : parent_(&parent), index_(index)
    {
    }
    // A path keeps pointers to its root and parent: both must outlive
    // it, so binding either to a temporary is a compile error.
    explicit JsonPath(std::string&&) = delete;
    JsonPath(JsonPath&&, const char*) = delete;
    JsonPath(JsonPath&&, std::size_t) = delete;

    std::string
    str() const
    {
        if (parent_ == nullptr)
            return *root_;
        return parent_->str() + "." +
               (key_ ? std::string(key_) : std::to_string(index_));
    }

  private:
    const std::string* root_ = nullptr;
    const JsonPath* parent_ = nullptr;
    const char* key_ = nullptr;
    std::size_t index_ = 0;
};

/** @p v is an array; when @p size is non-zero, of exactly that size. */
bool checkArray(const Json& v, const JsonPath& path, std::size_t size,
                std::string& error);

/** Type keys of the ByTypeShape adaptor: [0] = INT, [1] = FP. */
inline constexpr const char* kByTypeKeys[2] = {"int", "fp"};

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <Listed S>
Json encode(const S& s);

/**
 * One value by its type: unsigned integers and enums as exact
 * integers, bool, double, strings, arrays and vectors element-wise,
 * histograms and listed structs as objects.
 */
template <class T>
Json
encodeValue(const T& v)
{
    if constexpr (Listed<T>) {
        return encode(v);
    } else if constexpr (std::is_same_v<T, Histogram>) {
        return histogramToJson(v);
    } else if constexpr (std::is_same_v<T, bool>) {
        return Json::boolean(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return Json::string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
        return Json::number(static_cast<double>(v));
    } else if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) {
        return Json::number(static_cast<std::uint64_t>(v));
    } else {
        static_assert(kIsStdArray<T> || kIsVector<T>, "no wire form");
        Json arr = Json::array();
        for (const auto& e : v)
            arr.append(encodeValue(e));
        return arr;
    }
}

/** Encode a listed struct: its fields in list order. */
template <Listed S>
Json
encode(const S& s)
{
    Json j = Json::object();
    forEachField<S>([&](const auto& f) {
        using F = std::decay_t<decltype(f)>;
        if (f.presentIf != nullptr && !(s.*f.presentIf))
            return;
        if constexpr (std::is_same_v<typename F::WireShape, ByTypeShape>) {
            Json by_type = Json::object();
            for (std::size_t t = 0; t < 2; ++t)
                by_type.set(kByTypeKeys[t], encodeValue((s.*f.member)[t]));
            j.set(f.key, std::move(by_type));
        } else {
            j.set(f.key, encodeValue(s.*f.member));
        }
    });
    return j;
}

/** Member @p key of object @p obj, or nullptr with @p error set. */
inline const Json*
findMember(const Json& obj, const JsonPath& path, const char* key,
           std::string& error)
{
    if (!obj.isObject()) {
        failAt(error, path.str(), "expected an object");
        return nullptr;
    }
    const Json* m = obj.find(key);
    if (m == nullptr)
        failAt(error, path.str(),
               std::string("missing member '") + key + "'");
    return m;
}

template <class T>
bool decodeMember(const Json& obj, const JsonPath& path, const char* key,
                  T& out, std::string& error);

/** Decode one value by its type, range-checking narrow integers. */
template <class T>
bool
decodeValue(const Json& v, const JsonPath& path, T& out,
            std::string& error)
{
    if constexpr (Listed<T>) {
        bool ok = true;
        forEachField<T>([&](const auto& f) {
            using F = std::decay_t<decltype(f)>;
            auto& member = out.*f.member;
            if (!ok)
                return;
            if (f.presentIf != nullptr && !(out.*f.presentIf)) {
                member = typename F::Member();
            } else if constexpr (std::is_same_v<typename F::WireShape,
                                                ByTypeShape>) {
                const Json* m = findMember(v, path, f.key, error);
                const JsonPath at(path, f.key);
                ok = m != nullptr &&
                     decodeMember(*m, at, kByTypeKeys[0], member[0],
                                  error) &&
                     decodeMember(*m, at, kByTypeKeys[1], member[1], error);
            } else {
                ok = decodeMember(v, path, f.key, member, error);
            }
        });
        return ok;
    } else if constexpr (std::is_same_v<T, Histogram>) {
        return histogramFromJson(v, path.str(), out, error);
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return failAt(error, path.str(), "expected a boolean");
        out = v.asBool();
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return failAt(error, path.str(), "expected a string");
        out = v.asString();
        return true;
    } else if constexpr (std::is_floating_point_v<T>) {
        if (!v.isNumber())
            return failAt(error, path.str(), "expected a number");
        out = v.asDouble();
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        std::underlying_type_t<T> raw = 0;
        if (!decodeValue(v, path, raw, error))
            return false;
        const EnumRange range = enumRange(T{});
        if (raw >= range.count)
            return failAt(error, path.str(), range.error);
        out = static_cast<T>(raw);
        return true;
    } else if constexpr (std::is_unsigned_v<T>) {
        if (!v.isNumber() || v.asDouble() < 0)
            return failAt(error, path.str(),
                          "expected a non-negative number");
        std::uint64_t u = 0;
        if (const char* why = v.toU64(u))
            return failAt(error, path.str(), why);
        if constexpr (sizeof(T) < sizeof(std::uint64_t))
            if (u > std::numeric_limits<T>::max())
                return failAt(error, path.str(), "out of range");
        out = static_cast<T>(u);
        return true;
    } else {
        static_assert(kIsStdArray<T> || kIsVector<T>, "no wire form");
        if (!checkArray(v, path, kIsStdArray<T> ? out.size() : 0, error))
            return false;
        if constexpr (kIsVector<T>)
            out.assign(v.items().size(), typename T::value_type());
        for (std::size_t i = 0; i < out.size(); ++i)
            if (!decodeValue(v.items()[i], JsonPath(path, i), out[i],
                             error))
                return false;
        return true;
    }
}

/** Decode member @p key of object @p obj. */
template <class T>
bool
decodeMember(const Json& obj, const JsonPath& path, const char* key,
             T& out, std::string& error)
{
    const Json* m = findMember(obj, path, key, error);
    return m != nullptr && decodeValue(*m, JsonPath(path, key), out, error);
}

/** Fetch string member @p key of object @p obj into @p out. */
inline bool
getString(const Json& obj, const std::string& path, const char* key,
          std::string& out, std::string& error)
{
    return decodeMember(obj, JsonPath(path), key, out, error);
}

/** getString for an optional member: absent leaves @p out unchanged. */
inline bool
getOptionalString(const Json& obj, const std::string& path,
                  const char* key, std::string& out, std::string& error)
{
    return obj.find(key) == nullptr ||
           getString(obj, path, key, out, error);
}

/**
 * Decode a listed struct; @p path prefixes error messages. Fields
 * absent by their presentIf flag are reset to their defaults.
 */
template <Listed S>
bool
decode(const Json& j, const std::string& path, S& out, std::string& error)
{
    return decodeValue(j, JsonPath(path), out, error);
}

} // namespace wg::codec
