/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule, span
 * self time, paper_err_pp, and that the seed changes the inputs.
 * Exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "perfbench.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace {

using namespace perfbench;

int g_checks = 0;

#define EXPECT(cond)                                                      \
    do {                                                                  \
        ++g_checks;                                                       \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: expectation failed: %s\n",       \
                         __FILE__, __LINE__, #cond);                      \
            std::exit(1);                                                 \
        }                                                                 \
    } while (0)

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

void
testTailPercentile()
{
    // Ten samples must lie beyond the reported percentile.
    EXPECT(tailPercentile(0) == 0.0);
    EXPECT(tailPercentile(19) == 0.0);
    EXPECT(tailPercentile(20) == 50.0);
    EXPECT(tailPercentile(99) == 50.0);
    EXPECT(tailPercentile(100) == 90.0);
    EXPECT(tailPercentile(999) == 90.0);
    EXPECT(tailPercentile(1000) == 99.0);
    EXPECT(tailPercentile(9999) == 99.0);
    EXPECT(tailPercentile(10000) == 99.9);

    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    EXPECT(percentile(xs, 90) == 90.0); // exactly ten values beyond
    EXPECT(percentile(xs, 50) == 50.0);
    EXPECT(median(xs) == 50.5);
    EXPECT(median({3, 1, 2}) == 2.0);
}

SpanRecord
span(std::uint32_t id, std::uint32_t parent, std::int64_t a,
     std::int64_t b, const char* name)
{
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.startNs = a;
    s.endNs = b;
    s.name = name;
    return s;
}

void
testSelfTime()
{
    // Root [0,100] with children [10,30] and [20,50] overlapping each
    // other, [60,70], and [90,120] running past the root's end. The
    // grandchild inside [60,70] counts only against its own parent.
    const std::vector<SpanRecord> spans = {
        span(1, 0, 0, 100, "bench.root"),
        span(2, 1, 10, 30, "sim.a"),
        span(3, 1, 20, 50, "sim.b"),
        span(4, 1, 60, 70, "serve.c"),
        span(5, 4, 62, 65, "serve.d"),
        span(6, 1, 90, 120, "trace.e"),
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    // Covered: [10,50] + [60,70] + [90,100] = 40 + 10 + 10.
    EXPECT(self[0] == 40);
    EXPECT(self[1] == 20);
    EXPECT(self[2] == 30);
    EXPECT(self[3] == 7);
    EXPECT(self[4] == 3);
    EXPECT(self[5] == 30);

    const auto layers = layerSelfMs(spans);
    EXPECT(near(layers.at("bench"), 40e-6));
    EXPECT(near(layers.at("sim"), 50e-6));
    EXPECT(near(layers.at("serve"), 10e-6));
    EXPECT(near(layers.at("trace"), 30e-6));

    // A child that covers its parent entirely leaves no self time.
    const std::vector<SpanRecord> nested = {
        span(1, 0, 5, 10, "core.x"), span(2, 1, 0, 20, "sim.y")};
    EXPECT(selfTimesNs(nested)[0] == 0);

    // Spans recorded live nest by thread.
    SpanLog log;
    log.setEnabled(true);
    {
        Span outer(log, "bench.outer");
        Span inner(log, "sim.inner");
        EXPECT(inner.id() == 2);
    }
    const auto recs = log.records();
    EXPECT(recs.size() == 2);
    EXPECT(recs[1].parent == recs[0].id);
    EXPECT(recs[0].endNs >= recs[1].endNs);

    SpanLog off;
    {
        Span s(off, "bench.none");
        EXPECT(s.id() == 0);
    }
    EXPECT(off.records().empty());
}

void
testPaperErr()
{
    // The "measured" columns of EXPERIMENTS.md's Fig. 9 table against
    // its "paper" columns, by hand:
    //   INT |17.7-20.1| + |17.5-21.5| + |24.6-27.8| + |28.7-31.5|
    //       + |28.2-31.6| = 2.4 + 4.0 + 3.2 + 2.8 + 3.4 = 15.8
    //   FP  |31.1-31.4| + |31.3-35.2| + |36.6-41.1| + |40.6-45.6|
    //       + |39.9-46.5| = 0.3 + 3.9 + 4.5 + 5.0 + 6.6 = 20.3
    //   (15.8 + 20.3) / 10 = 3.61 pp
    Fig9Averages measured;
    measured.intPct = {17.7, 17.5, 24.6, 28.7, 28.2};
    measured.fpPct = {31.1, 31.3, 36.6, 40.6, 39.9};
    EXPECT(near(paperErrPp(measured), 3.61, 1e-9));
    EXPECT(near(paperErrPp(paperFig9()), 0.0));
}

void
testSeedChangesInputs()
{
    const auto a = planServedJobs(1, 400);
    const auto b = planServedJobs(2, 400);
    const auto a2 = planServedJobs(1, 400);
    bool differ = false, same = true;
    std::size_t repeats = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        differ = differ || a[i].bench != b[i].bench ||
                 a[i].technique != b[i].technique;
        same = same && a[i].bench == a2[i].bench &&
               a[i].technique == a2[i].technique &&
               a[i].kind == a2[i].kind && a[i].cellSeed == a2[i].cellSeed;
        if (a[i].kind != SubmitKind::New) {
            ++repeats;
            EXPECT(a[i].repeats < i);
            EXPECT(a[a[i].repeats].kind == SubmitKind::New);
        }
        if (a[i].kind == SubmitKind::Alias)
            EXPECT(a[i].cellSeed == 1);
    }
    EXPECT(differ);
    EXPECT(same);
    EXPECT(repeats == 120); // three in ten
    EXPECT(a[0].cellSeed == 1 && b[0].cellSeed == 2);

    // The seed reaches the simulator only as ExperimentOptions::seed,
    // which drives program generation.
    EXPECT(benchOptions(7).seed == 7);
    const wg::BenchmarkProfile& p = wg::findBenchmark("hotspot");
    wg::ProgramGenerator g1(benchOptions(1).seed), g2(benchOptions(2).seed);
    const auto p1 = g1.generateSm(p, 0);
    const auto p2 = g2.generateSm(p, 0);
    bool programs_differ = p1.size() != p2.size();
    for (std::size_t w = 0; !programs_differ && w < p1.size(); ++w)
        for (std::size_t i = 0; !programs_differ && i < p1[w].size() &&
                                i < p2[w].size();
             ++i)
            programs_differ = p1[w].at(i).unit != p2[w].at(i).unit ||
                              p1[w].at(i).dest != p2[w].at(i).dest;
    EXPECT(programs_differ);
}

void
testDigestBuf()
{
    DigestBuf buf;
    std::ostream os(&buf);
    std::string big(200000, 'x');
    os << big << "tail";
    os.flush();
    EXPECT(buf.bytes() == big.size() + 4);
    EXPECT(buf.digest() == fnv1a(big + "tail"));
}

} // namespace

int
main()
{
    testTailPercentile();
    testSelfTime();
    testPaperErr();
    testSeedChangesInputs();
    testDigestBuf();
    std::printf("perfbench_selftest: %d checks passed\n", g_checks);
    return 0;
}
