// End-to-end tests of the JSONL trace path through the real binaries:
// wgsim records a trace, wgtrace replays it. Covers the exit codes
// (0 clean, 1 unchecked SMs, 2 parse errors) and the diagnostics that
// unit tests of the reader cannot see. Also checks that wgsim's --json
// file holds every result of a multi-benchmark run, that wgsim rejects
// out-of-range sizes before it simulates anything, and that wgctl and
// wgservd reject counts their types cannot hold before they open a
// socket.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace
{

struct ToolRun
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr
};

ToolRun
run(const std::string& cmd)
{
    ToolRun r;
    FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        r.exitCode = WEXITSTATUS(status);
    return r;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string& path, const std::vector<std::string>& lines)
{
    std::ofstream out(path);
    for (const std::string& line : lines)
        out << line << '\n';
}

ToolRun
check(const std::string& path)
{
    return run(std::string(WGTRACE_BINARY) + " --check " + path);
}

class TraceCli : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dir_ = ::testing::TempDir() + "wg_trace_cli_" +
               std::to_string(getpid()) + "/";
        run("mkdir -p " + dir_);
        // NN on two SMs: a small trace that still covers every
        // gating event kind.
        recorded_ = run(std::string(WGSIM_BINARY) +
                        " --bench NN --technique WarpedGates --sms 2"
                        " --quiet --trace=" +
                        trace());
    }

    static void TearDownTestSuite() { run("rm -rf " + dir_); }

    static std::string trace() { return dir_ + "trace.jsonl"; }

    static inline std::string dir_;
    static inline ToolRun recorded_;
};

TEST_F(TraceCli, RecordedTraceChecksClean)
{
    ASSERT_EQ(recorded_.exitCode, 0) << recorded_.output;
    const ToolRun r = check(trace());
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("2 SMs, policy coordinated-blackout"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("check: checked 2 of 2 SMs"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("check: all gating invariants hold"),
              std::string::npos)
        << r.output;
}

TEST_F(TraceCli, TruncatedSmFailsTheCheck)
{
    // The recorded meta line, then SM 0's ring wrapped and SM 1's did
    // not.
    const std::vector<std::string> recorded = readLines(trace());
    ASSERT_FALSE(recorded.empty());
    const std::string path = dir_ + "truncated.jsonl";
    writeLines(path, {recorded[0], R"({"sm":0,"truncated":123456})",
                      R"({"sm":0,"cycle":9000,"kind":"unit-idle","unit":"INT","cluster":0})",
                      R"({"sm":0,"cycle":9001,"kind":"mshr-reject","unit":"LDST","attempts":3,"cycles":2})",
                      R"({"sm":1,"cycle":9000,"kind":"unit-idle","unit":"FP","cluster":1})"});
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("check: checked 1 of 2 SMs"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 SM(s) truncated"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("all gating invariants hold"),
              std::string::npos)
        << r.output;
    // The summary counts a reject run's cycles and refused attempts.
    EXPECT_NE(r.output.find("mshr-reject: 1 runs, 2 cycles, 6 attempts"),
              std::string::npos)
        << r.output;
}

TEST_F(TraceCli, OneSmTraceChecksOnlyThatSm)
{
    // --trace-sm records one SM; the meta line still counts them all.
    const std::string path = dir_ + "sm1.jsonl";
    const ToolRun recorded = run(std::string(WGSIM_BINARY) +
                                 " --bench NN --technique WarpedGates"
                                 " --sms 2 --quiet --trace-sm 1 --trace=" +
                                 path);
    ASSERT_EQ(recorded.exitCode, 0) << recorded.output;
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("check: checked 1 of 2 SMs"),
              std::string::npos)
        << r.output;
}

TEST_F(TraceCli, UnknownSchemaVersionExitsTwo)
{
    std::vector<std::string> lines = readLines(trace());
    ASSERT_FALSE(lines.empty());
    const std::string current = "\"version\":3,";
    const std::size_t at = lines[0].find(current);
    ASSERT_NE(at, std::string::npos) << lines[0];
    lines[0].replace(at, current.size(), "\"version\":4,");
    const std::string path = dir_ + "future.jsonl";
    writeLines(path, lines);
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("unsupported trace schema version 4"),
              std::string::npos)
        << r.output;
}

TEST_F(TraceCli, CorruptedLineExitsTwo)
{
    std::vector<std::string> lines = readLines(trace());
    ASSERT_GT(lines.size(), 10u);
    // An out-of-range cluster: a wrapping reader would accept it.
    lines[5] = R"({"sm":0,"cycle":9,"kind":"issue","unit":"INT","cluster":300,"warp":1})";
    const std::string path = dir_ + "corrupt.jsonl";
    writeLines(path, lines);
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("corrupt.jsonl:6: malformed line"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 malformed line(s)"), std::string::npos)
        << r.output;
}

TEST_F(TraceCli, MalformedLinesAcrossBlocksReportFirstFiveThenCount)
{
    std::vector<std::string> lines = readLines(trace());
    ASSERT_GT(lines.size(), 10u);
    // Seven bad lines, spread over several read blocks by runs of
    // blank lines (which are skipped, but counted as lines).
    const std::size_t pad = 700'000;
    std::vector<std::string> out = {lines[0]};
    for (std::size_t i = 0; i < 7; ++i) {
        out.push_back("not json " + std::to_string(i));
        out.push_back(lines[1 + i]);
        out.insert(out.end(), pad, "");
    }
    const std::string path = dir_ + "malformed.jsonl";
    writeLines(path, out);
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    for (std::size_t i = 0; i < 7; ++i) {
        const std::string line =
            "malformed.jsonl:" + std::to_string(2 + i * (pad + 2)) +
            ": malformed line";
        EXPECT_EQ(r.output.find(line) != std::string::npos, i < 5)
            << line << "\n" << r.output;
    }
    EXPECT_NE(r.output.find("wgtrace: 7 malformed line(s)"),
              std::string::npos)
        << r.output;
}

TEST_F(TraceCli, FirstLineNotMetaExitsTwo)
{
    std::vector<std::string> lines = readLines(trace());
    ASSERT_GT(lines.size(), 1u);
    lines.erase(lines.begin());
    const std::string path = dir_ + "headless.jsonl";
    writeLines(path, lines);
    const ToolRun r = check(path);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("does not start with a meta line"),
              std::string::npos)
        << r.output;
}

TEST(WgsimCli, JsonHoldsEveryResultInRunOrder)
{
    const std::string base = ::testing::TempDir() + "wg_report_cli_" +
                             std::to_string(getpid());
    const ToolRun r = run(std::string(WGSIM_BINARY) +
                          " --bench all --sms 1 --quiet --csv " + base +
                          ".csv --json " + base + ".json");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    const std::vector<std::string> rows = readLines(base + ".csv");
    const std::vector<std::string> json = readLines(base + ".json");
    std::remove((base + ".csv").c_str());
    std::remove((base + ".json").c_str());
    ASSERT_EQ(json.size(), 1u);
    ASSERT_GT(rows.size(), 2u); // the header and several benchmarks

    // One result per CSV row, in the same order, and no others.
    const std::string result = "{\"label\":";
    std::size_t results = 0;
    for (std::size_t at = json[0].find(result); at != std::string::npos;
         at = json[0].find(result, at + 1))
        ++results;
    EXPECT_EQ(results, rows.size() - 1);
    std::size_t at = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const std::string label = rows[i].substr(0, rows[i].find(','));
        at = json[0].find(result + "\"" + label + "\"", at);
        ASSERT_NE(at, std::string::npos)
            << label << " missing or out of order";
    }
}

TEST(WgsimCli, NegativeOrOversizedCountsAreUsageErrors)
{
    // Each value lands in an unsigned type, where a negative one would
    // wrap: -1 SMs asks for ~4e9 SMs, a -5 cycle BET for ~1.8e19.
    const std::string wgsim = std::string(WGSIM_BINARY) +
                              " --bench hotspot --quiet ";
    for (const char* flags :
         {"--sms -1", "--bet -5", "--sms 1025", "--sms 4294967297"}) {
        const ToolRun r = run(wgsim + flags);
        EXPECT_EQ(r.exitCode, 2) << flags << "\n" << r.output;
    }
    // 2^32 + 1 must not narrow to 1 SM; the message names the bound.
    const ToolRun wide = run(wgsim + "--sms 4294967297");
    EXPECT_NE(wide.output.find("at most 1024"), std::string::npos)
        << wide.output;
    // Zero SMs parses, then fails validation as a plain configuration
    // error: no snapshot is involved.
    const ToolRun zero = run(wgsim + "--sms 0");
    EXPECT_EQ(zero.exitCode, 2) << zero.output;
    EXPECT_NE(zero.output.find("invalid configuration: numSms"),
              std::string::npos)
        << zero.output;
    EXPECT_EQ(zero.output.find("snapshot"), std::string::npos)
        << zero.output;
    // A negative seed or --trace-sm is still a legal value.
    const ToolRun ok = run(wgsim + "--sms 1 --seed -1 --trace-sm -1");
    EXPECT_EQ(ok.exitCode, 0) << ok.output;
}

TEST(ServeCli, OverBoundCountsAreUsageErrors)
{
    // Each value is above what its destination type holds (a 16-bit
    // port, an unsigned priority or job count, an int millisecond
    // timeout), so parsing rejects it before any socket is opened.
    // The timeout and the free port keep a regression from leaving a
    // daemon behind, or from starting one on the default port.
    const std::string wgctl = std::string("timeout 10 ") + WGCTL_BINARY;
    const std::string wgservd =
        std::string("timeout 10 ") + WGSERVD_BINARY;
    for (const std::string& cmd :
         {wgctl + " status --port 70000",
          wgctl + " submit --port 1 --priority 4294967296",
          wgctl + " submit --port 1 --timeout-sec 3000000",
          wgservd + " --port 70000",
          wgservd + " --port 0 --max-concurrent 4294967296"}) {
        const ToolRun r = run(cmd);
        EXPECT_EQ(r.exitCode, 2) << cmd << "\n" << r.output;
        EXPECT_NE(r.output.find("must be at most"), std::string::npos)
            << cmd << "\n" << r.output;
    }
}

} // namespace
