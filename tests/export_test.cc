/**
 * @file
 * Unit tests for the CSV/JSON result export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/presets.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "sim/gpu.hh"

namespace wg {
namespace {

SimResult
smallResult()
{
    ExperimentOptions opts;
    opts.numSms = 1;
    GpuConfig cfg = makeConfig(Technique::WarpedGates, opts);
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 200;
    p.residentWarps = 8;
    Gpu gpu(cfg);
    return gpu.run(p);
}

std::size_t
countChar(const std::string& s, char c)
{
    std::size_t n = 0;
    for (char x : s)
        if (x == c)
            ++n;
    return n;
}

TEST(Export, CsvRowMatchesHeaderArity)
{
    SimResult r = smallResult();
    std::string header = csvHeader();
    std::string row = toCsvRow("hotspot", r);
    EXPECT_EQ(countChar(header, ','), countChar(row, ','));
    EXPECT_EQ(row.rfind("hotspot,", 0), 0u);
}

TEST(Export, CsvRowCarriesConfig)
{
    SimResult r = smallResult();
    std::string row = toCsvRow("x", r);
    EXPECT_NE(row.find("gates"), std::string::npos);
    EXPECT_NE(row.find("coordinated-blackout"), std::string::npos);
}

TEST(Export, CsvBytesArePinned)
{
    // The figure-data format: these bytes are the hand-written
    // emitter's, which the registry-driven one must reproduce.
    EXPECT_EQ(csvHeader() + "\n" + toCsvRow("hotspot", smallResult()),
              "label,scheduler,pg_policy,adaptive,num_sms,cycles,ipc,"
              "avg_active_warps,int_busy_frac,fp_busy_frac,"
              "int_static_savings,fp_static_savings,int_wakeups,"
              "fp_wakeups,int_critical,fp_critical,int_gating_events,"
              "fp_gating_events,mem_misses\n"
              "hotspot,gates,coordinated-blackout,1,1,5445,0.293848,"
              "1.0393,0.15932,0.126079,0.667769,0.682736,71,85,12,20,73,"
              "86,112");
}

TEST(Export, CsvPrintsLargeCountsAsIntegers)
{
    // Registry values are doubles; through operator<< a count of 1e6
    // or more would print as 1e+06.
    SimResult r;
    r.config.numSms = 4;
    r.cycles = 12345678;
    r.totalSmCycles = 24691356;
    r.aggregate.memMisses = 3000000;
    r.aggregate.clusters[0][0].pg.wakeups = 1000000;
    r.aggregate.clusters[0][1].pg.wakeups = 2500001;
    r.aggregate.clusters[1][0].pg.gatingEvents = 7000000;
    r.aggregate.clusters[1][1].pg.criticalWakeups = 1048576;
    EXPECT_EQ(toCsvRow("big", r),
              "big,two-level,none,0,4,12345678,0,0,0,0,0,0,3500001,0,0,"
              "1048576,0,7000000,3000000");
}

TEST(Export, JsonIsStructurallySound)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(toJson("hotspot", smallResult()), doc, error))
        << error;
    std::vector<std::string> keys;
    for (const auto& [key, value] : doc.members())
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"label", "scheduler",
                                              "pgPolicy", "metrics",
                                              "idleHistograms"}));
    EXPECT_EQ(doc.find("scheduler")->asString(), "gates");
    EXPECT_EQ(doc.find("pgPolicy")->asString(), "coordinated-blackout");
}

TEST(Export, JsonNumbersEqualTheResultExactly)
{
    const SimResult r = smallResult();
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(toJson("hotspot", r), doc, error)) << error;

    const StatSet registry = metrics::toStatSet(r);
    const Json* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->members().size(), registry.entries().size());
    for (const auto& [name, value] : metrics->members()) {
        ASSERT_TRUE(registry.has(name)) << name;
        EXPECT_EQ(value.asDouble(), registry.get(name)) << name;
    }

    const Json* hists = doc.find("idleHistograms");
    ASSERT_NE(hists, nullptr);
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        const Histogram& want = r.idleHist(uc);
        const Json* h = hists->find(uc == UnitClass::Int ? "int" : "fp");
        ASSERT_NE(h, nullptr);
        const std::vector<Json>& bins = h->find("bins")->items();
        ASSERT_EQ(bins.size(), want.maxBin() + 1);
        for (std::uint64_t b = 0; b <= want.maxBin(); ++b)
            EXPECT_EQ(bins[b].asU64(), want.bin(b)) << b;
        EXPECT_EQ(h->find("overflow")->asU64(), want.overflow());
        EXPECT_EQ(h->find("total")->asU64(), want.total());
        EXPECT_EQ(h->find("sum")->asU64(), want.sum());
    }
}

TEST(Export, JsonEscapesLabel)
{
    SimResult r = smallResult();
    std::string json = toJson("we\"ird\\label", r);
    EXPECT_NE(json.find("we\\\"ird\\\\label"), std::string::npos);
}

TEST(Export, JsonEscapesControlBytesInLabel)
{
    // \r, \b, \f and raw bytes below 0x20 must be escaped or the
    // report is not valid JSON.
    const std::string label = "a\r\x01\b\f\"z";
    const std::string json = toJson(label, smallResult());
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(json, doc, error)) << error;
    ASSERT_NE(doc.find("label"), nullptr);
    EXPECT_EQ(doc.find("label")->asString(), label);
}

TEST(Export, WriteFileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/wg_export_test.csv";
    writeFile(path, "a,b\n1,2\n");
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "a,b\n1,2\n");
    std::remove(path.c_str());
}

TEST(ExportDeath, UnwritablePathIsFatal)
{
    EXPECT_EXIT(writeFile("/nonexistent-dir/foo.csv", "x"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace wg
