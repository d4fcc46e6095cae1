// Golden-fixture tests for the wglint static analyzer. Each rule has a
// violating, a clean, and a suppressed fixture under
// tests/wglint_fixtures/; the linter binary is invoked as a subprocess
// (the same way CI runs it) so exit codes and the jsonl wire format
// are covered, not just the checker internals.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace
{

struct LintRun
{
    int exitCode = -1;
    std::string output;
};

/** Run wglint with @p args, from @p dir when one is given. */
LintRun
runWglint(const std::string& args, const std::string& dir = "")
{
    const std::string cd = dir.empty() ? "" : "cd '" + dir + "' && ";
    const std::string cmd =
        cd + std::string(WGLINT_BINARY) + " " + args + " 2>&1";
    LintRun run;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
        run.output.append(buf.data(), n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    return run;
}

std::string
fixture(const std::string& name)
{
    return std::string(WGLINT_FIXTURE_DIR) + "/" + name;
}

/** Count jsonl records attributed to the given rule. */
int
countRule(const std::string& output, const std::string& rule)
{
    const std::string needle = "\"rule\":\"" + rule + "\"";
    int count = 0;
    for (std::size_t pos = output.find(needle);
         pos != std::string::npos;
         pos = output.find(needle, pos + needle.size()))
        ++count;
    return count;
}

int
totalRecords(const std::string& output)
{
    return countRule(output, "D1") + countRule(output, "D2") +
           countRule(output, "D4") + countRule(output, "C2") +
           countRule(output, "H1");
}

LintRun
lintFixture(const std::string& name)
{
    return runWglint("--format=jsonl " + fixture(name));
}

} // namespace

TEST(Wglint, D1ViolationFires)
{
    auto run = lintFixture("d1_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D1"), 4) << run.output;
    // `return time(nullptr)` is a free call despite the preceding
    // keyword token.
    EXPECT_NE(run.output.find("'time'"), std::string::npos)
        << run.output;
    EXPECT_EQ(totalRecords(run.output), countRule(run.output, "D1"))
        << run.output;
}

TEST(Wglint, D1CleanIsSilent)
{
    auto run = lintFixture("d1_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D1SuppressionHonored)
{
    auto run = lintFixture("d1_suppressed.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D1ServeTimeoutSubsetIsExemptUnderServeDir)
{
    // serve/ gets monotonic socket timeouts (steady_clock, sleep_for,
    // sleep_until) without per-line suppressions.
    auto run = lintFixture("serve/d1_scoped_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D1WallClocksStillFireUnderServeDir)
{
    // The scoped exemption is the timeout subset only: wall clocks and
    // entropy under serve/ are violations like anywhere else.
    auto run = lintFixture("serve/d1_scoped_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D1"), 3) << run.output;
    EXPECT_NE(run.output.find("'system_clock'"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("'rand'"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("'random_device'"), std::string::npos)
        << run.output;
}

TEST(Wglint, D1TimeoutIdentsStillFireOutsideServeDir)
{
    // The same idents the serve/ scope exempts are violations in a
    // file that is not under a serve/ directory (d1_violation.cc
    // already covers steady_clock/sleep shapes at top level).
    auto run = lintFixture("d1_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_GE(countRule(run.output, "D1"), 1) << run.output;
}

TEST(Wglint, D2ViolationFires)
{
    auto run = lintFixture("metrics/d2_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_GE(countRule(run.output, "D2"), 2) << run.output;
    EXPECT_EQ(totalRecords(run.output), countRule(run.output, "D2"))
        << run.output;
}

TEST(Wglint, D2CleanIsSilent)
{
    auto run = lintFixture("metrics/d2_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D2SuppressionHonored)
{
    auto run = lintFixture("metrics/d2_suppressed.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D4ViolationFires)
{
    auto run = lintFixture("d4_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D4"), 2) << run.output;
}

TEST(Wglint, D4CleanIsSilent)
{
    auto run = lintFixture("d4_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D4SuppressionHonored)
{
    auto run = lintFixture("d4_suppressed.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D4WireKeyViolationFires)
{
    auto run = lintFixture("serve/d4_wire_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D4"), 2) << run.output;
    EXPECT_NE(run.output.find("job_id"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("dropped_frames"), std::string::npos)
        << run.output;
}

TEST(Wglint, D4WireKeyCleanIsSilent)
{
    auto run = lintFixture("serve/d4_wire_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, D4WireKeySuppressionHonored)
{
    auto run = lintFixture("serve/d4_wire_suppressed.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, H1ViolationFires)
{
    auto run = lintFixture("h1_violation.hh");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "H1"), 2) << run.output;
}

TEST(Wglint, H1CleanIsSilent)
{
    auto run = lintFixture("h1_clean.hh");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, H1SuppressionHonored)
{
    auto run = lintFixture("h1_suppressed.hh");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, WholeFixtureTreeFindsEveryRule)
{
    auto run = runWglint("--format=jsonl " +
                         std::string(WGLINT_FIXTURE_DIR));
    EXPECT_EQ(run.exitCode, 1) << run.output;
    for (const char* rule : {"D1", "D2", "D4", "C2", "H1"})
        EXPECT_GE(countRule(run.output, rule), 1)
            << rule << "\n" << run.output;
}

TEST(Wglint, RepositoryTreeIsClean)
{
    // The same invocation as the CI lint job: the real tree must pass
    // every rule, not just the fixtures.
    auto run = runWglint("src tools bench", WG_SOURCE_DIR);
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find("wglint: clean"), std::string::npos)
        << run.output;
}

TEST(Wglint, JsonlRecordsCarryFixHints)
{
    auto run = lintFixture("d1_violation.cc");
    EXPECT_NE(run.output.find("\"hint\":\""), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("\"line\":"), std::string::npos)
        << run.output;
}

TEST(Wglint, TextFormatPrintsSummary)
{
    auto clean = runWglint("--format=text " + fixture("d1_clean.cc"));
    EXPECT_EQ(clean.exitCode, 0) << clean.output;
    EXPECT_NE(clean.output.find("wglint: clean"), std::string::npos)
        << clean.output;

    auto bad = runWglint("--format=text " + fixture("d1_violation.cc"));
    EXPECT_EQ(bad.exitCode, 1) << bad.output;
    EXPECT_NE(bad.output.find("wglint: FAILED"), std::string::npos)
        << bad.output;
    EXPECT_NE(bad.output.find("hint:"), std::string::npos)
        << bad.output;
}

TEST(Wglint, MissingPathIsUsageError)
{
    auto run = runWglint(fixture("no_such_file.cc"));
    EXPECT_EQ(run.exitCode, 2) << run.output;
}

TEST(Wglint, ListRulesNamesEveryRule)
{
    auto run = runWglint("--list-rules");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    for (const char* rule : {"D1", "D2", "D4", "C2", "H1"})
        EXPECT_NE(run.output.find(rule), std::string::npos)
            << rule << "\n" << run.output;
    // Raw locking is a compile error (Mutex has no lock()), not a rule.
    EXPECT_EQ(run.output.find("C1"), std::string::npos) << run.output;
}

// ---------------------------------------------------------------------
// C2: cross-TU lock-discipline drift
// ---------------------------------------------------------------------

TEST(Wglint, C2CrossFileViolationFires)
{
    auto run = lintFixture("c2");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "C2"), 2) << run.output;
    EXPECT_NE(run.output.find("c2_racy.cc"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("unlocked write to 'c2_hits_'"),
              std::string::npos)
        << run.output;
}

TEST(Wglint, C2PerFileLintingMasksCrossFileDrift)
{
    // The racy writer alone is clean — the guarded sibling TU is out
    // of view. This is the drift only the merged index can see, and
    // the reason the C2 fixtures are linted as a directory above.
    auto run = lintFixture("c2/c2_racy.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, C2AnnotatedFieldViolationFires)
{
    // WG_GUARDED_BY alone (no guarded write anywhere) makes the field
    // a candidate.
    auto run = lintFixture("c2/c2_annotated_violation.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "C2"), 1) << run.output;
    EXPECT_NE(run.output.find("'ar_count_'"), std::string::npos)
        << run.output;
}

TEST(Wglint, C2SuppressionHonored)
{
    auto run = lintFixture("c2/c2_suppressed.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, C2CleanIsSilent)
{
    // Exercises the *Locked caller-holds-the-lock exemption.
    auto run = lintFixture("c2/c2_clean.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

// ---------------------------------------------------------------------
// Tokenizer hardening: malformed sources must not derail the scan
// ---------------------------------------------------------------------

TEST(Wglint, MalformedStringLiteralRecoversAtLineEnd)
{
    // The unterminated literal must not swallow the rest of the file:
    // the rand() below it is still reported.
    auto run = lintFixture("malformed/unterminated_string.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D1"), 1) << run.output;
}

TEST(Wglint, MalformedCharLiteralRecoversAtLineEnd)
{
    auto run = lintFixture("malformed/unterminated_char.cc");
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_EQ(countRule(run.output, "D1"), 1) << run.output;
}

TEST(Wglint, UnterminatedRawStringSwallowsTailByDesign)
{
    // Raw strings legitimately span lines; with no closing delimiter
    // the rest of the file is literal text, not code.
    auto run = lintFixture("malformed/unterminated_raw.cc");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(Wglint, BadJobsValueIsUsageError)
{
    // wglint has no --jobs or --no-interprocedural flag; like every
    // unknown flag, both are usage errors.
    EXPECT_EQ(runWglint("--jobs=4 " + fixture("d1_clean.cc")).exitCode,
              2);
    EXPECT_EQ(runWglint("--no-interprocedural " + fixture("d1_clean.cc"))
                  .exitCode,
              2);
}
