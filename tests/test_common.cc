/**
 * @file
 * Unit tests for the common substrate (bit utils, RNG, logging, flags).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/flags.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace
{

using namespace dcl1;

TEST(BitUtils, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitUtils, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4), 2u);
    EXPECT_EQ(log2Floor(1023), 9u);
    EXPECT_EQ(log2Floor(1024), 10u);
}

TEST(BitUtils, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
    // The paper's home-bit count: ShY needs ceil(log2(Y)) bits.
    EXPECT_EQ(log2Ceil(40), 6u);
    EXPECT_EQ(log2Ceil(4), 2u); // Sh40+C10: log2(40/10)
}

TEST(BitUtils, DivCeil)
{
    EXPECT_EQ(divCeil(0, 32), 0u);
    EXPECT_EQ(divCeil(1, 32), 1u);
    EXPECT_EQ(divCeil(32, 32), 1u);
    EXPECT_EQ(divCeil(33, 32), 2u);
    EXPECT_EQ(divCeil(128, 32), 4u); // line -> flits
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 40ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4000; ++i)
        seen.insert(rng.below(40));
    EXPECT_EQ(seen.size(), 40u);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.01);
}

TEST(Log, Csprintf)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(csprintf("%u%%", 50u), "50%");
}

TEST(Log, LevelRoundTrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}

// ------------------------------------------------------------------ flags

/** The message of the fatal() @p fn raises ("" when it returns). */
template <typename Fn>
std::string
fatalOf(Fn fn)
{
    SimErrorTrap trap;
    try {
        fn();
    } catch (const SimAbort &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("fatal: ", 0), 0u) << what;
        return what.substr(7);
    }
    return "";
}

/** parse() over @p args, as if they followed the program name. */
bool
parseArgs(const FlagSet &flags, const std::vector<const char *> &args,
          std::vector<std::string> *undeclared = nullptr)
{
    std::vector<const char *> argv = {"tool"};
    argv.insert(argv.end(), args.begin(), args.end());
    return flags.parse(static_cast<int>(argv.size()), argv.data(),
                       undeclared);
}

/** The flag shapes the tools declare, over one set of targets. */
struct Targets
{
    std::string out = "-";
    std::string json;
    std::uint32_t latency = 0;
    std::uint64_t cycles = 30;
    bool drain = false;
    std::vector<std::string> designs = {"Baseline"};
    std::vector<double> lambdas = {0.5};
    double scale = 1.0;
    std::string replay;
    std::string traceOut;

    FlagSet
    flags()
    {
        FlagSet f("tool — test", "closing text");
        f.add("--out=FILE", "output", out);
        f.add("--stats-json[=F]", "JSON ('-'/bare = stdout)", json, "-");
        f.add("--latency[=N]", "1-in-N", latency, 1, 1000, "1");
        f.add("--cycles=N", "cycles", cycles, 1, 1'000'000);
        f.add("--drain", "drain", drain);
        f.add("--designs=A,B", "designs", designs);
        f.add("--lambda=R[,R..]", "load", lambdas);
        f.add("--budget-scale=X", "scale\nsecond line", scale);
        f.add("--trace[=FILE]", "replay FILE; bare: export",
              [this](const std::string *file) {
                  if (file)
                      replay = *file;
                  else
                      traceOut = "trace.json";
              });
        return f;
    }
};

TEST(Flags, BareAndValuedForms)
{
    Targets t;
    EXPECT_TRUE(parseArgs(t.flags(), {"--stats-json", "--latency",
                                      "--drain", "--trace"}));
    EXPECT_EQ(t.json, "-");
    EXPECT_EQ(t.latency, 1u);
    EXPECT_TRUE(t.drain);
    EXPECT_EQ(t.traceOut, "trace.json");
    EXPECT_EQ(t.replay, "");

    Targets v;
    EXPECT_TRUE(parseArgs(v.flags(), {"--stats-json=s.json", "--latency=8",
                                      "--trace=my.trace"}));
    EXPECT_EQ(v.json, "s.json");
    EXPECT_EQ(v.latency, 8u);
    EXPECT_EQ(v.replay, "my.trace");
    EXPECT_EQ(v.traceOut, "");
    EXPECT_EQ(v.out, "-"); // untouched defaults stay
    EXPECT_EQ(v.cycles, 30u);

    // A value-only flag given bare, and a switch given a value.
    Targets e;
    EXPECT_EQ(fatalOf([&] { parseArgs(e.flags(), {"--out"}); }),
              "--out needs a value (--out=FILE)");
    EXPECT_EQ(fatalOf([&] { parseArgs(e.flags(), {"--drain=1"}); }),
              "--drain takes no value (got '--drain=1')");
}

TEST(Flags, LastFlagWins)
{
    Targets t;
    EXPECT_TRUE(parseArgs(t.flags(),
                          {"--cycles=5", "--designs=A", "--out=a.csv",
                           "--cycles=7", "--designs=B,,C", "--out=b.csv"}));
    EXPECT_EQ(t.cycles, 7u);
    EXPECT_EQ(t.designs, (std::vector<std::string>{"B", "C"}));
    EXPECT_EQ(t.out, "b.csv");
}

TEST(Flags, UnknownFlagIsFatal)
{
    Targets t;
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"--cycle=5"}); }),
              "unknown option '--cycle=5' (--help lists them)");
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"extra"}); }),
              "unknown option 'extra' (--help lists them)");
    // Integers keep the environment reader's messages.
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"--cycles=2k"}); }),
              "--cycles: trailing garbage in '2k' (parsed up to 'k')");
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"--latency=0"}); }),
              "--latency: 0 out of range [1, 1000]");
}

TEST(Flags, UndeclaredFlagsAreHandedBack)
{
    Targets t;
    std::vector<std::string> rest;
    EXPECT_TRUE(parseArgs(t.flags(),
                          {"--apps=T-AlexNet", "--out=x.csv", "--jobs=1",
                           "--profile"},
                          &rest));
    EXPECT_EQ(rest, (std::vector<std::string>{"--apps=T-AlexNet",
                                              "--jobs=1", "--profile"}));
    EXPECT_EQ(t.out, "x.csv");
    // Only "--" flags are handed back; declared ones are still checked.
    EXPECT_NE(fatalOf([&] { parseArgs(t.flags(), {"stray"}, &rest); }),
              "");
    EXPECT_NE(fatalOf([&] { parseArgs(t.flags(), {"--cycles=x"}, &rest); }),
              "");
}

TEST(Flags, HelpIsPrintedFromTheDeclarations)
{
    Targets t;
    testing::internal::CaptureStdout();
    const bool go_on = parseArgs(t.flags(), {"--cycles=9", "-h"});
    const std::string help = testing::internal::GetCapturedStdout();
    EXPECT_FALSE(go_on);
    EXPECT_EQ(t.cycles, 9u);
    EXPECT_EQ(help.rfind("tool — test\n\n", 0), 0u) << help;
    EXPECT_NE(help.find("  --stats-json[=F]  JSON ('-'/bare = stdout)\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("  --budget-scale=X  scale\n"
                        "                    second line\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("  -h, --help        this text\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("\nclosing text\n"), std::string::npos) << help;
    // A bad flag is an error even next to --help.
    EXPECT_NE(fatalOf([&] { parseArgs(t.flags(), {"--help", "--x"}); }),
              "");
}

TEST(Flags, RealAndListReaders)
{
    EXPECT_EQ(parsePositiveReal("--x", "0.5"), 0.5);
    EXPECT_EQ(parsePositiveReal("--x", "2"), 2.0);
    EXPECT_EQ(parsePositiveReal("--x", "1e-300"), 1e-300);
    for (const char *bad : {"nan", "inf", "-inf", "-3", "0", "1e-400"})
        EXPECT_EQ(fatalOf([&] { parsePositiveReal("--x", bad); }),
                  std::string("--x: '") + bad +
                      "' is not a finite number above 0");
    EXPECT_EQ(fatalOf([&] { parsePositiveReal("--x", "1x"); }),
              "--x: '1x' is not a number");
    EXPECT_EQ(fatalOf([&] { parsePositiveReal("--x", ""); }),
              "--x: empty value (expected a number)");

    EXPECT_EQ(parseList("--l", "a,,b,"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(joinList(parseList("--l", "a,b")), "a,b");
    for (const char *empty : {"", ",", ",,"})
        EXPECT_EQ(fatalOf([&] { parseList("--l", empty); }),
                  std::string("--l: no items in '") + empty +
                      "' (expected a comma list)");

    // Through a flag: each item of a real list is checked.
    Targets t;
    EXPECT_TRUE(parseArgs(t.flags(), {"--lambda=0.2,2", "--budget-scale=3"}));
    EXPECT_EQ(t.lambdas, (std::vector<double>{0.2, 2.0}));
    EXPECT_EQ(t.scale, 3.0);
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"--lambda=0.2,inf"}); }),
              "--lambda: 'inf' is not a finite number above 0");
    EXPECT_EQ(fatalOf([&] { parseArgs(t.flags(), {"--designs="}); }),
              "--designs: no items in '' (expected a comma list)");
}

} // anonymous namespace
