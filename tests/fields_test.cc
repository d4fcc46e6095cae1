/**
 * @file
 * Table-driven tests over every listed struct (common/fields.hh): each
 * struct's field list drives a fill with distinct non-default values,
 * a JSON round trip through the derived codec, the derived merge and
 * epoch delta, and the narrow-integer range checks on decode.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/codec.hh"
#include "power/energymodel.hh"
#include "sim/snapshot.hh"

namespace wg {
namespace {

template <class T>
inline constexpr bool kIsVector = codec::kIsVector<T>;

/** Element type of an array or vector member, else the member type. */
template <class T>
struct LeafOf
{
    using type = T;
};
template <class T, std::size_t N>
struct LeafOf<std::array<T, N>>
{
    using type = T;
};
template <class T>
struct LeafOf<std::vector<T>>
{
    using type = T;
};

/**
 * Visit every leaf of @p v through the field lists, numbering leaves
 * in list order. Vectors are given two elements so their element
 * structs are covered too.
 */
template <class T, class Op>
void
walk(T& v, std::uint64_t& n, Op&& op)
{
    if constexpr (Listed<T>) {
        forEachField<T>([&](const auto& f) { walk(v.*f.member, n, op); });
    } else if constexpr (kIsStdArray<T>) {
        for (auto& e : v)
            walk(e, n, op);
    } else if constexpr (kIsVector<T>) {
        if (v.empty())
            v.resize(2);
        for (auto& e : v)
            walk(e, n, op);
    } else {
        op(v, n++);
    }
}

/** Distinct non-default value of leaf number @p n. */
template <class T>
T
leafValue(std::uint64_t n)
{
    if constexpr (std::is_same_v<T, Histogram>) {
        Histogram h(8);
        h.add(n % 8 + 1);
        h.add(100 + n); // overflow bin
        return h;
    } else if constexpr (std::is_same_v<T, bool>) {
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        return static_cast<T>(1 + n % (enumRange(T{}).count - 1));
    } else if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(n) + 0.25;
    } else {
        return static_cast<T>(1 + n % std::numeric_limits<T>::max());
    }
}

/** Leaf equality, by wire form (covers every Histogram internal). */
template <class T>
bool
sameValue(const T& a, const T& b)
{
    return codec::encodeValue(a).dump() == codec::encodeValue(b).dump();
}

template <class T>
T
filled(std::uint64_t first = 0)
{
    T s = T();
    std::uint64_t n = first;
    walk(s, n, [](auto& leaf, std::uint64_t i) {
        leaf = leafValue<std::decay_t<decltype(leaf)>>(i);
    });
    return s;
}

template <class T>
class FieldList : public ::testing::Test
{
};

using ListedStructs = ::testing::Types<
    PgDomainStats, ClusterStats, SmStats, UnitEnergy,
    metrics::EpochCounters, metrics::EpochSample, metrics::SamplerState,
    RngState, WarpSlotState, SchedulerState, Completion, ExecUnitState,
    MemSystemState, PgDomainState, AdaptiveState, PgControllerState,
    trace::Event, SmSnapshot, GpuSnapshot>;
TYPED_TEST_SUITE(FieldList, ListedStructs);

TYPED_TEST(FieldList, EveryEntryNamesItsOwnMember)
{
    // Two entries aliasing one member would overwrite each other's
    // fill value; reading back in list order catches it.
    const TypeParam s = filled<TypeParam>();
    TypeParam probe = s;
    std::uint64_t n = 0;
    walk(probe, n, [](const auto& leaf, std::uint64_t i) {
        using L = std::decay_t<decltype(leaf)>;
        EXPECT_TRUE(sameValue(leaf, leafValue<L>(i))) << "leaf " << i;
        EXPECT_FALSE(sameValue(leaf, L()))
            << "leaf " << i << " kept its default";
    });
    EXPECT_GT(n, 0u);
}

TYPED_TEST(FieldList, RoundTripsThroughJson)
{
    const TypeParam s = filled<TypeParam>();
    const std::string text = codec::encode(s).dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, error)) << error;
    // Decode over a differently-filled struct: every member must be
    // overwritten. The lists are complete, so equal encodings mean
    // equal structs.
    TypeParam back = filled<TypeParam>(7);
    ASSERT_TRUE(codec::decode(parsed, "$", back, error)) << error;
    EXPECT_EQ(codec::encode(back).dump(), text);
}

TYPED_TEST(FieldList, NarrowIntegersRejectOnePastTheirWidth)
{
    const Json good = codec::encode(filled<TypeParam>());
    forEachField<TypeParam>([&](const auto& f) {
        using M = typename std::decay_t<decltype(f)>::Member;
        using Leaf = typename LeafOf<M>::type;
        if constexpr (std::is_unsigned_v<Leaf> &&
                      !std::is_same_v<Leaf, bool> &&
                      sizeof(Leaf) < sizeof(std::uint64_t)) {
            const Json too_big = Json::number(
                std::uint64_t(std::numeric_limits<Leaf>::max()) + 1);
            Json doc = good;
            std::string where = std::string("$.") + f.key;
            if constexpr (std::is_same_v<Leaf, M>) {
                doc.set(f.key, too_big);
            } else {
                Json arr = Json::array();
                arr.append(too_big);
                for (std::size_t i = 1; i < good.find(f.key)->items().size();
                     ++i)
                    arr.append(Json(good.find(f.key)->items()[i]));
                doc.set(f.key, std::move(arr));
                where += ".0";
            }
            Json parsed;
            std::string error;
            ASSERT_TRUE(Json::parse(doc.dump(), parsed, error)) << error;
            TypeParam out = TypeParam();
            EXPECT_FALSE(codec::decode(parsed, "$", out, error)) << f.key;
            EXPECT_EQ(error, where + ": out of range");
        }
    });
}

/** Check merged leaf values against the list's rules. */
template <class T>
void
expectMerged(const T& m, const T& a, const T& b, FieldRule rule)
{
    if constexpr (Listed<T>) {
        forEachField<T>([&](const auto& f) {
            expectMerged(m.*f.member, a.*f.member, b.*f.member, f.rule);
        });
    } else if constexpr (std::is_same_v<T, Histogram>) {
        EXPECT_EQ(m.total(), a.total() + b.total());
        EXPECT_EQ(m.sum(), a.sum() + b.sum());
    } else if constexpr (kIsStdArray<T>) {
        for (std::size_t i = 0; i < m.size(); ++i)
            expectMerged(m[i], a[i], b[i], rule);
    } else if constexpr (std::is_same_v<T, bool>) {
        ASSERT_EQ(rule, FieldRule::And);
        EXPECT_EQ(m, a && b);
    } else if (rule == FieldRule::Max) {
        EXPECT_EQ(m, std::max(a, b));
    } else {
        ASSERT_EQ(rule, FieldRule::Sum);
        EXPECT_EQ(m, a + b);
    }
}

template <class T>
class StatsFieldList : public ::testing::Test
{
};

using StatsStructs =
    ::testing::Types<PgDomainStats, ClusterStats, SmStats, UnitEnergy>;
TYPED_TEST_SUITE(StatsFieldList, StatsStructs);

TYPED_TEST(StatsFieldList, MergeAppliesEachFieldsRule)
{
    const TypeParam a = filled<TypeParam>(3);
    TypeParam b = filled<TypeParam>(40);
    // Mix the flags so `and` is observable, and make b larger in some
    // leaves and smaller in others so `max` is too.
    std::uint64_t n = 0;
    walk(b, n, [](auto& leaf, std::uint64_t i) {
        using L = std::decay_t<decltype(leaf)>;
        if constexpr (std::is_same_v<L, bool>)
            leaf = false;
        else if constexpr (std::is_arithmetic_v<L>)
            if (i % 2)
                leaf = leafValue<L>(0);
    });
    TypeParam m = a;
    mergeFields(m, b);
    expectMerged(m, a, b, FieldRule::Sum);
}

TEST(EpochCountersFieldList, DeltaSubtractsCountersAndKeepsGauges)
{
    const auto now = filled<metrics::EpochCounters>(1000);
    const auto base = filled<metrics::EpochCounters>(1);
    const auto d = deltaFields(now, base);
    int gauges = 0;
    forEachField<metrics::EpochCounters>([&](const auto& f) {
        if (f.rule == FieldRule::Gauge) {
            EXPECT_EQ(d.*f.member, now.*f.member) << f.key;
            ++gauges;
        } else {
            ASSERT_EQ(f.rule, FieldRule::Sum) << f.key;
            EXPECT_EQ(d.*f.member, now.*f.member - base.*f.member)
                << f.key;
        }
    });
    EXPECT_EQ(gauges, 2);
}

TEST(SmSnapshotFieldList, OptionalSectionsFollowTheirFlags)
{
    SmSnapshot s = filled<SmSnapshot>();
    s.hasTrace = false;
    s.hasSampler = false;
    const Json j = codec::encode(s);
    EXPECT_EQ(j.find("traceEvents"), nullptr);
    EXPECT_EQ(j.find("traceOverwritten"), nullptr);
    EXPECT_EQ(j.find("sampler"), nullptr);

    // Decoding resets the absent sections to their defaults.
    SmSnapshot back = filled<SmSnapshot>(5);
    std::string error;
    ASSERT_TRUE(codec::decode(j, "$", back, error)) << error;
    EXPECT_TRUE(back.traceEvents.empty());
    EXPECT_EQ(back.traceOverwritten, 0u);
    EXPECT_TRUE(back.sampler.samples.empty());
    EXPECT_EQ(codec::encode(back).dump(), j.dump());
}

/** Decode `{"cycle":<lexeme>}` into a trace event's 64-bit cycle. */
bool
decodeCycle(const std::string& lexeme, std::uint64_t& cycle,
            std::string& error)
{
    Json doc;
    EXPECT_TRUE(Json::parse("{\"cycle\":" + lexeme + "}", doc, error))
        << error;
    const std::string root = "$";
    return codec::decodeMember(doc, codec::JsonPath(root), "cycle", cycle,
                               error);
}

TEST(CodecUnsigned, AcceptsPlainDigitsUpTo64Bits)
{
    std::uint64_t cycle = 0;
    std::string error;
    ASSERT_TRUE(decodeCycle("0", cycle, error)) << error;
    EXPECT_EQ(cycle, 0u);
    ASSERT_TRUE(decodeCycle("18446744073709551615", cycle, error)) << error;
    EXPECT_EQ(cycle, std::numeric_limits<std::uint64_t>::max());
}

TEST(CodecUnsigned, RejectsFractionsAndExponents)
{
    // Each once read as a truncated or scaled integer (5, 1000, ...).
    for (const char* lexeme : {"5.5", "5.0", "1e3", "1E3", "2.5e1", "1e-2"}) {
        std::uint64_t cycle = 0;
        std::string error;
        EXPECT_FALSE(decodeCycle(lexeme, cycle, error)) << lexeme;
        EXPECT_EQ(error, "$.cycle: expected an unsigned integer") << lexeme;
    }
}

TEST(CodecUnsigned, Rejects64BitOverflow)
{
    // Once clamped to 2^64 - 1.
    for (const char* lexeme :
         {"18446744073709551616", "99999999999999999999999"}) {
        std::uint64_t cycle = 0;
        std::string error;
        EXPECT_FALSE(decodeCycle(lexeme, cycle, error)) << lexeme;
        EXPECT_EQ(error, "$.cycle: out of range") << lexeme;
    }
}

TEST(CodecUnsigned, NarrowMembersRejectFractionsToo)
{
    // The integer check runs before the width check, for every width.
    Json j = codec::encode(trace::Event{});
    j.set("cluster", Json::number(1.5));
    trace::Event out;
    std::string error;
    EXPECT_FALSE(codec::decode(j, "$", out, error));
    EXPECT_EQ(error, "$.cluster: expected an unsigned integer");
}

TEST(TraceEventFieldList, UnknownKindIsRejected)
{
    Json j = codec::encode(trace::Event{});
    j.set("kind", Json::number(std::uint64_t(trace::kNumEventKinds)));
    trace::Event out;
    std::string error;
    EXPECT_FALSE(codec::decode(j, "$", out, error));
    EXPECT_EQ(error, "$.kind: unknown event kind");
}

} // namespace
} // namespace wg
