#include "registry.hh"

#include <type_traits>

namespace wg::metrics {

namespace {

template <Listed S>
void appendFields(StatSet& set, const std::string& prefix, const S& s);

/** Register one value (a scalar or a nested listed struct). */
template <class T>
void
appendValue(StatSet& set, const std::string& name, const T& v)
{
    if constexpr (Listed<T>)
        appendFields(set, name, v);
    else if constexpr (std::is_same_v<T, bool>)
        set.set(name, v ? 1.0 : 0.0);
    else
        set.set(name, static_cast<double>(v));
}

/** Call @p fn on each element of a (possibly nested) array, row-major. */
template <class T, class Fn>
void
forEachElement(const T& v, Fn&& fn)
{
    if constexpr (kIsStdArray<T>) {
        for (const auto& e : v)
            forEachElement(e, fn);
    } else {
        fn(v);
    }
}

/**
 * Register every listed field of @p s under `<prefix>.<stat name>`
 * (Field::stat). Histograms are distributions, not registry scalars.
 */
template <Listed S>
void
appendFields(StatSet& set, const std::string& prefix, const S& s)
{
    forEachField<S>([&](const auto& f) {
        using M = typename std::decay_t<decltype(f)>::Member;
        const std::string name = f.stat ? f.stat : f.key;
        if constexpr (kIsStdArray<M>) {
            // One entry per element: labels[i] replaces the '*'.
            const std::size_t star = name.find('*');
            std::size_t i = 0;
            forEachElement(s.*f.member, [&](const auto& e) {
                std::string n = name;
                appendValue(set,
                            prefix + "." + n.replace(star, 1, f.labels[i++]),
                            e);
            });
        } else if constexpr (!std::is_same_v<M, Histogram>) {
            appendValue(set, name.empty() ? prefix : prefix + "." + name,
                        s.*f.member);
        }
    });
}

} // namespace

StatSet
toStatSet(const SimResult& r)
{
    StatSet set;

    // The aggregate is an SmStats whose `cycles` is the per-SM sum;
    // correct the headline entries to the result's semantics below.
    appendFields(set, "gpu", r.aggregate);
    set.set("gpu.cycles", static_cast<double>(r.cycles));
    set.set("gpu.totalSmCycles", static_cast<double>(r.totalSmCycles));

    set.set("gpu.ipc", r.ipc());
    set.set("gpu.avgActiveWarps", r.aggregate.avgActiveWarps());
    set.set("gpu.numSms", static_cast<double>(r.smCycles.size()));

    // Per-type rollups (both clusters of the type) plus the derived
    // per-figure fractions, so every CSV/JSON export column has a
    // registry twin.
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        const std::string p = std::string("gpu.pg.") +
                              (uc == UnitClass::Int ? "int" : "fp");
        appendFields(set, p, r.typeStats(uc));
        double busy_frac = 0.0;
        if (r.totalSmCycles > 0)
            busy_frac = static_cast<double>(r.typeStats(uc).busyCycles) /
                        (2.0 * static_cast<double>(r.totalSmCycles));
        set.set(p + ".busyFraction", busy_frac);
        set.set(p + ".idleFraction", r.idleFraction(uc));
        set.set(p + ".compensatedNetFraction",
                r.compensatedNetFraction(uc));
        set.set(p + ".criticalWakeupsPer1k",
                r.criticalWakeupsPer1k(uc));
    }

    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp, UnitClass::Sfu,
                         UnitClass::Ldst}) {
        const std::string p = std::string("gpu.energy.") +
                              SmStats::kClassLabels[static_cast<int>(uc)];
        const UnitEnergy& e = r.energy(uc);
        appendFields(set, p, e);
        set.set(p + ".totalJ", e.total());
        set.set(p + ".savingsRatio", e.staticSavingsRatio());
    }

    for (std::size_t s = 0; s < r.smCycles.size(); ++s)
        set.set("sm" + std::to_string(s) + ".cycles",
                static_cast<double>(r.smCycles[s]));

    const PgParams& pg = r.config.sm.pg;
    set.set("config.numSms", static_cast<double>(r.config.numSms));
    set.set("config.seed", static_cast<double>(r.config.seed));
    set.set("config.adaptive", pg.adaptiveIdleDetect ? 1.0 : 0.0);
    set.set("config.gateSfu", pg.gateSfu ? 1.0 : 0.0);
    set.set("config.idleDetect", static_cast<double>(pg.idleDetect));
    set.set("config.breakEven", static_cast<double>(pg.breakEven));
    set.set("config.wakeupDelay", static_cast<double>(pg.wakeupDelay));
    set.set("config.epochLength", static_cast<double>(pg.epochLength));
    return set;
}

} // namespace wg::metrics
