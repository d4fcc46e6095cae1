/**
 * @file
 * Unit tests for the CSV/JSON result export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "core/presets.hh"
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

TEST(Export, JsonIsStructurallySound)
{
    SimResult r = smallResult();
    std::string json = toJson("hotspot", r);
    // Balanced braces/brackets and the expected top-level keys.
    EXPECT_EQ(countChar(json, '{'), countChar(json, '}'));
    EXPECT_EQ(countChar(json, '['), countChar(json, ']'));
    for (const char* key :
         {"\"label\"", "\"config\"", "\"cycles\"", "\"int\"", "\"fp\"",
          "\"energy\"", "\"idle_histogram\"", "\"savings_ratio\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
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
