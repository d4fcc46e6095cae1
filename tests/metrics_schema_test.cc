/**
 * @file
 * The metrics registry's names against its Prometheus exposition:
 * every name a real simulation registers has a catalogued # HELP
 * string, gets its # HELP and # TYPE lines, and maps to a distinct
 * Prometheus name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "sim/gpu.hh"

namespace wg {
namespace {

SimResult
smallRun()
{
    ExperimentOptions opts;
    opts.numSms = 2;
    Gpu gpu(makeConfig(Technique::WarpedGates, opts));
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return gpu.run(p, nullptr);
}

TEST(ExportSchema, EveryRegistryMetricHasCataloguedHelp)
{
    // Every name a real simulation registers must resolve to a
    // catalogued # HELP string; a new metric family added without a
    // catalogue entry fails here instead of shipping the generic
    // "uncatalogued" text to scrape consumers.
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        EXPECT_TRUE(metrics::metricHelpKnown(name))
            << "metric '" << name << "' has no # HELP catalogue entry";
    }
}

TEST(ExportSchema, PromExpositionCarriesHelpAndTypePerMetric)
{
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    std::ostringstream os;
    metrics::writeProm(os, registry);
    const std::string text = os.str();
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        const std::string pn = metrics::promName(name);
        EXPECT_NE(text.find("# HELP " + pn + " "), std::string::npos)
            << "no # HELP line for " << pn;
        EXPECT_NE(text.find("# TYPE " + pn + " gauge\n"),
                  std::string::npos)
            << "no # TYPE line for " << pn;
    }
    EXPECT_NE(text.find("# EOF\n"), std::string::npos);
}

TEST(ExportSchema, PromNameMappingStaysBijective)
{
    // The '.' -> '_' mapping is invertible only while registry names
    // keep '_' out (lint rule D4); a collision between two registered
    // names would corrupt scrape round-trips.
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    std::vector<std::string> mapped;
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        EXPECT_EQ(name.find('_'), std::string::npos)
            << "registry name '" << name << "' contains '_'";
        mapped.push_back(metrics::promName(name));
    }
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(std::adjacent_find(mapped.begin(), mapped.end()),
              mapped.end())
        << "two registry names map to the same Prometheus name";
}

} // namespace
} // namespace wg
