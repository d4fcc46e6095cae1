// End-to-end tests of the JSONL trace path through the real binaries:
// wgsim records a trace, wgtrace replays it. Covers the exit codes
// (0 clean, 2 parse errors) and the malformed-line diagnostics that
// unit tests of the reader cannot see.
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
    EXPECT_NE(r.output.find("check: all gating invariants hold"),
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

} // namespace
