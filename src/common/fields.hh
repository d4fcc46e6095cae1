/**
 * @file
 * One field list per stats and checkpoint struct (DESIGN.md §17).
 *
 * A listed struct names each data member exactly once:
 *
 *   static constexpr auto
 *   fields()
 *   {
 *       using S = RngState;
 *       return std::tuple{field("state", &S::state),
 *                         field("inc", &S::inc)};
 *   }
 *
 * Each entry carries the member's wire key (list order is wire order),
 * how the member combines across SMs and epochs (FieldRule) and, for
 * stats, its StatSet name. Merge and the epoch delta are derived below;
 * StatSet registration (metrics/registry.cc) and the JSON codec
 * (common/codec.hh) walk the same list. forEachField() refuses to
 * compile a list whose length differs from the struct's member count,
 * so a member added without an entry breaks the build.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/histogram.hh"

namespace wg {

/** How a member combines across SMs (merge) and epochs (delta). */
enum class FieldRule : std::uint8_t {
    Keep,  ///< checkpoint state: never merged
    Sum,   ///< counter: merge adds, the epoch delta subtracts
    Max,   ///< high-water mark: merge keeps the larger
    And,   ///< completion flag: merge is logical and
    Gauge, ///< point-in-time value: the epoch delta keeps the newer
};

/** Wire shape of a member: its natural JSON form. */
struct PlainShape {};

/**
 * Wire shape of a [2][N] per-type array: {"int":[...],"fp":[...]}
 * instead of a nested array.
 */
struct ByTypeShape {};

/** One list entry: a member, its wire key and how it combines. */
template <class S, class M, class Shape = PlainShape>
struct Field
{
    using Member = M;
    using WireShape = Shape;

    const char* key;       ///< wire (JSON) member name
    M S::*member;
    FieldRule rule = FieldRule::Keep;
    /**
     * StatSet name below the prefix; nullptr = the wire key. An empty
     * name registers a nested struct's fields directly under the
     * prefix; '*' is replaced by labels[i] for element i of an array
     * (nested arrays count their elements row-major).
     */
    const char* stat = nullptr;
    const char* const* labels = nullptr;
    /** On the wire only when this flag member is set. */
    bool S::*presentIf = nullptr;

    constexpr Field
    named(const char* name, const char* const* index_labels = nullptr) const
    {
        Field f = *this;
        f.stat = name;
        f.labels = index_labels;
        return f;
    }

    constexpr Field
    onlyIf(bool S::*flag) const
    {
        Field f = *this;
        f.presentIf = flag;
        return f;
    }

    constexpr Field<S, M, ByTypeShape>
    byType() const
    {
        return {key, member, rule, stat, labels, presentIf};
    }
};

template <class S, class M>
constexpr Field<S, M>
field(const char* key, M S::*member, FieldRule rule = FieldRule::Keep)
{
    return Field<S, M>{key, member, rule};
}

/** A struct with a fields() list. */
template <class T>
concept Listed = requires { T::fields(); };

/**
 * Decode bound of an enum member: values below count are valid, the
 * rest fail with @c error. Enums in listed structs provide
 * `constexpr EnumRange enumRange(E)`, found by argument lookup.
 */
struct EnumRange
{
    std::size_t count;
    const char* error;
};

template <class T>
inline constexpr bool kIsStdArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsStdArray<std::array<T, N>> = true;

namespace fields_detail {

/** Converts to any member type; only ever named in unevaluated code. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

template <class S, std::size_t... I>
constexpr bool
initializableFrom(std::index_sequence<I...>)
{
    return requires { S{(void(I), AnyMember{})...}; };
}

/**
 * Number of data members of aggregate @p S: the most initializers
 * S{...} accepts. Searched downwards, since fewer initializers than
 * members is ill-formed when a trailing member has an explicit default
 * constructor (Histogram).
 */
template <class S, std::size_t N = 64>
constexpr std::size_t
memberCount()
{
    if constexpr (N == 0 ||
                  initializableFrom<S>(std::make_index_sequence<N>{}))
        return N;
    else
        return memberCount<S, N - 1>();
}

} // namespace fields_detail

/** Call @p fn on every entry of S's list, in list (wire) order. */
template <Listed S, class Fn>
void
forEachField(Fn&& fn)
{
    static constexpr auto kList = S::fields();
    static_assert(std::tuple_size_v<std::remove_const_t<decltype(kList)>> ==
                      fields_detail::memberCount<S>(),
                  "a listed struct must name every data member in its "
                  "fields() list");
    std::apply([&](const auto&... f) { (fn(f), ...); }, kList);
}

template <Listed S>
void mergeFields(S& into, const S& from);

/** Combine @p from into @p into under @p rule (recursing). */
template <class T>
void
mergeValue(T& into, const T& from, FieldRule rule)
{
    if constexpr (Listed<T>) {
        mergeFields(into, from);
    } else if constexpr (std::is_same_v<T, Histogram>) {
        into.merge(from);
    } else if constexpr (kIsStdArray<T>) {
        for (std::size_t i = 0; i < into.size(); ++i)
            mergeValue(into[i], from[i], rule);
    } else if constexpr (std::is_same_v<T, bool>) {
        if (rule == FieldRule::And)
            into = into && from;
    } else {
        static_assert(std::is_arithmetic_v<T>, "unmergeable member");
        if (rule == FieldRule::Sum)
            into += from;
        else if (rule == FieldRule::Max)
            into = std::max(into, from);
    }
}

/**
 * Fold another run's stats into @p into: every member by its rule;
 * nested listed structs and histograms merge by their own.
 */
template <Listed S>
void
mergeFields(S& into, const S& from)
{
    forEachField<S>([&](const auto& f) {
        mergeValue(into.*f.member, from.*f.member, f.rule);
    });
}

/** Epoch delta @p now - @p base; Gauge members are taken from @p now. */
template <Listed S>
S
deltaFields(const S& now, const S& base)
{
    S d;
    forEachField<S>([&](const auto& f) {
        d.*f.member = f.rule == FieldRule::Gauge
                          ? now.*f.member
                          : now.*f.member - base.*f.member;
    });
    return d;
}

} // namespace wg
