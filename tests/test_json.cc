/**
 * @file
 * The strict JSON reader (common/json.hh) and the front doors built on
 * it. Unit cases pin the grammar, the typed reads and the error text;
 * a seeded mutation test feeds damaged copies of what the program's
 * own writers produce to every reader, which must return or fatal(),
 * never panic, crash or trip a sanitizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/run_manifest.hh"
#include "serve/job_mix.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;

/** Error text of a rejected @p text ("" when it parses). */
std::string
rejection(const std::string &text)
{
    json::Value v;
    std::string error;
    return json::parse(text, v, error) ? "" : error;
}

TEST(Json, ParsesEveryValueKind)
{
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(" {\"a\": [1, -2.5e+3, true, false, null, "
                            "\"q\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"],\n"
                            "  \"b\": {}} ",
                            v, error))
        << error;
    ASSERT_EQ(v.kind, json::Value::Kind::Object);
    const json::Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 6u);
    EXPECT_EQ(a->items[1].text, "-2.5e+3");
    EXPECT_EQ(a->items[2].kind, json::Value::Kind::Bool);
    EXPECT_TRUE(a->items[2].boolean);
    EXPECT_FALSE(a->items[3].boolean);
    EXPECT_EQ(a->items[4].kind, json::Value::Kind::Null);
    EXPECT_EQ(a->items[5].text, "q\"\\/\b\f\n\r\tA");
    EXPECT_EQ(v.find("b")->kind, json::Value::Kind::Object);
    EXPECT_EQ(v.find("c"), nullptr);
    EXPECT_EQ(a->find("a"), nullptr); // arrays have no members

    for (const char *scalar : {"\"s\"", "0", "-0", "1E5", " true "})
        EXPECT_EQ(rejection(scalar), "") << scalar;
}

TEST(Json, RejectsWithReasonAndOffset)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "unexpected end of input at offset 0"},
        {"{\"a\":1} x", "trailing content at offset 8"},
        {"{\"a\":1}{\"b\":2}", "trailing content at offset 7"},
        {"{\"a\":1,\"a\":2}", "duplicate key at offset 7"},
        {"\"a\x01\"", "control character in string at offset 2"},
        {"\"a\nb\"", "control character in string at offset 2"},
        {"[1,]", "expected a value at offset 3"},
        {"{\"a\":1,}", "expected a string key at offset 7"},
        {"{\"a\" 1}", "expected ':' at offset 5"},
        {"[1 2]", "expected ',' or ']' at offset 3"},
        {"{\"a\":1 \"b\":2}", "expected ',' or '}' at offset 7"},
        {"{\"a\":", "unexpected end of input at offset 5"},
        {"\"abc", "unexpected end of input at offset 4"},
        {"\"\\x\"", "invalid escape at offset 2"},
        {"\"\\u00g1\"", "malformed \\u escape at offset 2"},
        {"\"\\u0141\"", "\\u escape above U+007F at offset 2"},
        {"tru", "expected a value at offset 0"},
        {"nope", "expected a value at offset 0"},
        // Strict number grammar: no sign, bare point or empty exponent.
        {"+3", "expected a value at offset 0"},
        {".5", "expected a value at offset 0"},
        {"1.", "unexpected end of input at offset 2"},
        {"1.e5", "malformed number at offset 2"},
        {"1e", "unexpected end of input at offset 2"},
        {"-x", "malformed number at offset 1"},
        {"01", "trailing content at offset 1"},
        {"12abc", "trailing content at offset 2"},
    };
    for (const auto &[text, reason] : cases)
        EXPECT_EQ(rejection(text), reason) << text;
}

TEST(Json, NestingIsBounded)
{
    const auto nested = [](unsigned depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(rejection(nested(json::kMaxDepth)), "");
    EXPECT_EQ(rejection(nested(json::kMaxDepth + 1)),
              "nesting deeper than 64 levels at offset 64");
    EXPECT_NE(rejection(std::string(100000, '[')), "");
}

TEST(Json, TypedReadsAreExact)
{
    auto number = [](const std::string &literal) {
        json::Value v;
        std::string error;
        EXPECT_TRUE(json::parse(literal, v, error)) << literal;
        return v;
    };
    std::uint64_t n = 7;
    EXPECT_TRUE(number("18446744073709551615").get(n));
    EXPECT_EQ(n, UINT64_MAX);
    for (const char *bad : {"18446744073709551616", "-3", "-0", "1e3",
                            "1.0"}) {
        n = 7;
        EXPECT_FALSE(number(bad).get(n)) << bad;
        EXPECT_EQ(n, 7u) << bad;
    }

    for (const double d : {0.1, 1.0 / 3.0, 2.5e-10, 1e300,
                           1.0000000000000002}) {
        double back = 0.0;
        EXPECT_TRUE(number(csprintf("%.17g", d)).get(back));
        EXPECT_EQ(back, d);
    }
    double d = 0.0;
    EXPECT_FALSE(number("1e999").get(d)); // not finite

    json::Value v;
    std::string error, s;
    bool b = false;
    ASSERT_TRUE(json::parse("{\"n\":\"40\",\"t\":true}", v, error));
    EXPECT_FALSE(v.get("n", n)); // a quoted number is a string
    EXPECT_TRUE(v.get("n", s));
    EXPECT_FALSE(v.get("t", s));
    EXPECT_TRUE(v.get("t", b));
    EXPECT_FALSE(v.get("missing", s));
    EXPECT_TRUE(v.getOptional("missing", s));
    EXPECT_FALSE(v.getOptional("t", s));
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    const std::string escaped = json::escape(all);
    EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse("\"" + escaped + "\"", v, error)) << error;
    EXPECT_EQ(v.text, all);
}

// ------------------------------------------------------------- fuzzing

std::string
tempDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() +
                            csprintf("dcl1-json-%d-", int(getpid())) + name;
    exec::ensureDirectory(dir);
    return dir;
}

std::string
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
}

/** The records the program writes, as its own writers produce them. */
std::vector<std::string>
seedRecords(const std::string &dir)
{
    std::vector<std::string> seeds;

    exec::JobRecord rec;
    rec.key = "Sh40|T-AlexNet|\"quoted\"|back\\slash|\t|\x01";
    rec.label = "Sh40/T-AlexNet";
    rec.outcome = exec::Outcome::Ok;
    rec.error = "line1\nline2";
    rec.metrics.cycles = 20000;
    rec.metrics.instructions = 104382;
    rec.metrics.ipc = 1.0 / 3.0;
    rec.metrics.avgReplicas = 1.0000000000000002;
    rec.metrics.maxCoreReplyLinkUtil = 1e300;
    seeds.push_back(rec.toJsonLine());

    const std::string run = tempDir("manifest");
    std::remove((run + "/manifest.json").c_str());
    exec::RunManifest::openOrCreate(run, "sweep \"designs\"=A,B")
        ->finalize("complete");
    seeds.push_back(*exec::readFileText(run + "/manifest.json"));

    core::SystemConfig sys;
    core::GpuSystem gpu(sys, core::designByName("Sh40+C10+Boost"),
                        workload::appByName("T-AlexNet").params);
    gpu.run(300, 0);
    exec::JobResult result;
    result.label = "Sh40+C10+Boost/T-AlexNet";
    result.outcome = exec::Outcome::SimBug;
    result.error = "panic: q1 overflow";
    exec::writeCrashRecord(dir, result,
                           exec::crashConfigJson(
                               "Sh40+C10+Boost", "T-AlexNet", "", sys,
                               300, 0) +
                               "," + exec::crashSnapshotJson(gpu));
    seeds.push_back(
        *exec::readFileText(dir + "/" + exec::crashRecordName(0,
                                                               result.label)));

    seeds.push_back(*exec::readFileText(std::string(DCL1_SOURCE_DIR) +
                                        "/examples/serving/mix.json"));
    seeds.push_back("{\"cycle\": 0, \"app\": \"T-AlexNet\", \"cores\": 8}\n"
                    "{\"cycle\": 400, \"app\": \"C-BFS\", \"budget\": 500}\n"
                    "{\"cycle\": 400, \"app\": \"P-2MM\"}\n");
    return seeds;
}

/** One damaged copy of a seed: 1-4 stacked edits drawn from @p rng. */
std::string
mutate(const std::vector<std::string> &seeds, Rng &rng)
{
    static const std::string kSignificant = "{}[]\",:\\-+.0123456789eEu \n";
    std::string s = seeds[rng.below(seeds.size())];
    const std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t at = s.empty() ? 0 : rng.below(s.size());
        switch (rng.below(7)) {
          case 0: // byte flip
            if (!s.empty())
                s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8)));
            break;
          case 1: // insertion
            s.insert(at, 1,
                     rng.chance(0.5)
                         ? kSignificant[rng.below(kSignificant.size())]
                         : static_cast<char>(rng.below(256)));
            break;
          case 2: // deletion
            s.erase(at, 1 + rng.below(8));
            break;
          case 3: // truncation
            s.resize(at);
            break;
          case 4: { // splice: this seed's head, another's tail
            const std::string &other = seeds[rng.below(seeds.size())];
            s = s.substr(0, at) +
                other.substr(other.empty() ? 0 : rng.below(other.size()));
            break;
          }
          case 5: // a run of 100 '['
            s.insert(at, 100, '[');
            break;
          default: // a whole record appended to a torn one
            s = s.substr(0, at) + seeds[rng.below(seeds.size())];
        }
    }
    return s;
}

/**
 * Run @p reader under a trap: it must return or fatal(), not panic.
 * @return true when it returned.
 */
template <typename Fn>
bool
mustReturnOrFatal(const char *reader, const std::string &input, Fn &&fn)
{
    SimErrorTrap trap;
    try {
        fn();
        return true;
    } catch (const SimAbort &e) {
        EXPECT_FALSE(e.isPanic) << reader << " panicked: " << e.what()
                                << "\ninput: " << input;
    } catch (const std::exception &e) {
        ADD_FAILURE() << reader << " threw " << e.what()
                      << "\ninput: " << input;
    }
    return false;
}

TEST(JsonFuzz, FrontDoorsReturnOrFatalOnDamagedRecords)
{
    const std::string dir = tempDir("fuzz");
    const std::vector<std::string> seeds = seedRecords(dir);
    const std::string crash_path = dir + "/mutated.json";
    // Each seed loads through its own front door before it is damaged.
    exec::JobRecord seed_rec;
    ASSERT_TRUE(exec::JobRecord::fromJsonLine(seeds[0], seed_rec));
    ASSERT_EQ(rejection(seeds[1]), "");
    EXPECT_EQ(exec::loadCrashRecord(writeFile(crash_path, seeds[2])).design,
              "Sh40+C10+Boost");
    EXPECT_EQ(serve::parseMixJson(seeds[3], "mix").entries.size(), 3u);
    EXPECT_EQ(serve::parseJobTrace(seeds[4], "trace").size(), 3u);

    Rng rng(0x5eedf022);
    std::size_t wal_accepted = 0, crash_loaded = 0, mix_loaded = 0,
                trace_loaded = 0;
    constexpr int kMutations = 3000;
    for (int i = 0; i < kMutations; ++i) {
        const std::string input =
            i == 0 ? std::string(100, '[') : mutate(seeds, rng);
        json::Value v;
        std::string error;
        json::parse(input, v, error);

        exec::JobRecord rec;
        if (exec::JobRecord::fromJsonLine(input, rec)) {
            // What the WAL accepts must be what it writes back.
            ++wal_accepted;
            exec::JobRecord back;
            ASSERT_TRUE(exec::JobRecord::fromJsonLine(rec.toJsonLine(),
                                                      back))
                << input;
            EXPECT_EQ(back.toJsonLine(), rec.toJsonLine()) << input;
        }
        core::RunMetrics rm;
        exec::parseRunMetricsJson(input, rm);

        crash_loaded += mustReturnOrFatal("loadCrashRecord", input, [&] {
            exec::loadCrashRecord(writeFile(crash_path, input));
        });
        mix_loaded += mustReturnOrFatal("parseMixJson", input, [&] {
            serve::parseMixJson(input, "fuzz");
        });
        trace_loaded += mustReturnOrFatal("parseJobTrace", input, [&] {
            serve::parseJobTrace(input, "fuzz");
        });
    }
    // Some damaged records must still load, or the mutations only ever
    // exercise the first syntax error.
    EXPECT_GT(wal_accepted, 0u);
    EXPECT_GT(crash_loaded, 0u);
    EXPECT_GT(mix_loaded, 0u);
    EXPECT_GT(trace_loaded, 0u);
    std::printf("accepted: %zu WAL, %zu crash, %zu mix, %zu trace of %d\n",
                wal_accepted, crash_loaded, mix_loaded, trace_loaded,
                kMutations);
}

} // anonymous namespace
