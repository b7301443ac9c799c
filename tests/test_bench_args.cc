#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common.h"

/**
 * Bench arg-parsing edge cases: duplicate flags, negative or
 * non-numeric `--jobs`, bad `--trace-granularity` / MAB_BENCH_SCALE /
 * MAB_TRACE_ARENA_MB values, and flags with missing values must
 * produce usage errors instead of being silently clamped, wrapped or
 * atoi'd to 0. The tests target the non-exiting cores (findFlagValue /
 * parseInt64 / parseUint64 / resolveJobs / resolveTraceGranularity /
 * resolveScale / resolveArenaBudget); the exiting wrappers print the
 * same message and exit 2.
 */

namespace mab::bench {
namespace {

/** argv builder: keeps the strings alive, hands out char* vectors. */
class Args
{
  public:
    explicit Args(std::vector<std::string> tokens)
        : tokens_(std::move(tokens))
    {
        argv_.push_back(const_cast<char *>("bench"));
        for (std::string &t : tokens_)
            argv_.push_back(t.data());
    }

    int argc() const { return static_cast<int>(argv_.size()); }
    char **argv() { return argv_.data(); }

  private:
    std::vector<std::string> tokens_;
    std::vector<char *> argv_;
};

TEST(FindFlagValue, ReturnsValueAndNullWhenAbsent)
{
    Args args({"--seed", "7", "--shrink"});
    const char *v = nullptr;
    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--seed", &v),
              "");
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v, "7");

    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--iters", &v),
              "");
    EXPECT_EQ(v, nullptr);
}

TEST(FindFlagValue, FlagAsFinalTokenIsAUsageError)
{
    Args args({"--iters", "10", "--replay"});
    const char *v = nullptr;
    const std::string err =
        findFlagValue(args.argc(), args.argv(), "--replay", &v);
    EXPECT_NE(err.find("--replay needs a value"), std::string::npos)
        << err;
}

TEST(FindFlagValue, DuplicateFlagIsAUsageError)
{
    Args args({"--jobs", "2", "--jobs", "4"});
    const char *v = nullptr;
    const std::string err =
        findFlagValue(args.argc(), args.argv(), "--jobs", &v);
    EXPECT_NE(err.find("duplicate --jobs"), std::string::npos) << err;
}

TEST(FindFlagValue, FlagValuedWithAFlagLiteralIsConsumed)
{
    // The flag consumes the next token verbatim; "--jobs --jobs" is
    // one occurrence whose (nonsensical) value fails numeric parsing
    // downstream, not a duplicate.
    Args args({"--jobs", "--jobs"});
    const char *v = nullptr;
    EXPECT_EQ(findFlagValue(args.argc(), args.argv(), "--jobs", &v),
              "");
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v, "--jobs");
}

TEST(StrictParsers, AcceptWholeTokenNumbersOnly)
{
    int64_t i = 0;
    EXPECT_TRUE(parseInt64("42", &i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt64("-3", &i));
    EXPECT_EQ(i, -3);
    EXPECT_FALSE(parseInt64("", &i));
    EXPECT_FALSE(parseInt64("abc", &i));
    EXPECT_FALSE(parseInt64("4x", &i));
    EXPECT_FALSE(parseInt64(nullptr, &i));

    uint64_t u = 0;
    EXPECT_TRUE(parseUint64("18446744073709551615", &u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_FALSE(parseUint64("-1", &u));
    EXPECT_FALSE(parseUint64("+1", &u));
    EXPECT_FALSE(parseUint64(" -1", &u));
    EXPECT_FALSE(parseUint64(" 1", &u));
    EXPECT_FALSE(parseUint64("1.5", &u));
    EXPECT_FALSE(parseUint64("99999999999999999999999", &u));
}

TEST(ResolveJobs, DefaultsToSerial)
{
    Args args({});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), nullptr, &jobs),
              "");
    EXPECT_EQ(jobs, 1);
}

TEST(ResolveJobs, FlagAndEnvSelectTheCount)
{
    Args args({"--jobs", "3"});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), "8", &jobs), "");
    EXPECT_EQ(jobs, 3) << "the flag outranks the environment";

    Args noflag({});
    EXPECT_EQ(resolveJobs(noflag.argc(), noflag.argv(), "8", &jobs),
              "");
    EXPECT_EQ(jobs, 8);
}

TEST(ResolveJobs, ZeroStillSelectsHardwareConcurrency)
{
    // Documented behavior: --jobs 0 = hardware concurrency. Only
    // negative and non-numeric counts are usage errors.
    Args args({"--jobs", "0"});
    int jobs = 0;
    EXPECT_EQ(resolveJobs(args.argc(), args.argv(), nullptr, &jobs),
              "");
    EXPECT_EQ(jobs, SweepRunner::hardwareJobs());
    EXPECT_GE(jobs, 1);
}

TEST(ResolveJobs, NegativeCountIsAUsageError)
{
    Args args({"--jobs", "-3"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_EQ(jobs, 1) << "the out-param stays at the safe default";
}

TEST(ResolveJobs, NonNumericCountIsAUsageError)
{
    // The old code atoi'd this to 0 and silently fanned out to every
    // hardware thread.
    Args args({"--jobs", "many"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
    EXPECT_EQ(jobs, 1);
}

TEST(ResolveJobs, NegativeEnvironmentIsAUsageErrorToo)
{
    Args args({});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), "-2", &jobs);
    EXPECT_NE(err.find("usage error"), std::string::npos) << err;
}

TEST(ResolveJobs, DuplicateFlagIsAUsageError)
{
    Args args({"--jobs", "2", "--jobs", "4"});
    int jobs = 0;
    const std::string err =
        resolveJobs(args.argc(), args.argv(), nullptr, &jobs);
    EXPECT_NE(err.find("duplicate --jobs"), std::string::npos) << err;
}

TEST(ResolveTraceGranularity, DefaultsToTheTracerDefault)
{
    Args args({});
    uint64_t cycles = 7;
    EXPECT_EQ(resolveTraceGranularity(args.argc(), args.argv(), nullptr,
                                      &cycles),
              "");
    EXPECT_EQ(cycles, 0u) << "0 = keep the tracer's default period";
}

TEST(ResolveTraceGranularity, FlagOutranksEnvironment)
{
    Args args({"--trace-granularity", "2500"});
    uint64_t cycles = 0;
    EXPECT_EQ(resolveTraceGranularity(args.argc(), args.argv(), "100",
                                      &cycles),
              "");
    EXPECT_EQ(cycles, 2500u);

    Args noflag({});
    EXPECT_EQ(resolveTraceGranularity(noflag.argc(), noflag.argv(),
                                      "100", &cycles),
              "");
    EXPECT_EQ(cycles, 100u);
}

TEST(ResolveTraceGranularity, NonPositiveOrNonNumericIsAUsageError)
{
    // A bare strtoull turns "abc" into 0 (silently ignored) and wraps
    // "-5" to ~1.8e19 cycles, a sampler that never fires.
    for (const char *bad : {"abc", "-5", "0", "", "10k", "1.5", "+3"}) {
        Args args({"--trace-granularity", bad});
        uint64_t cycles = 7;
        const std::string err = resolveTraceGranularity(
            args.argc(), args.argv(), nullptr, &cycles);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "--trace-granularity '" << bad << "': " << err;
        EXPECT_EQ(cycles, 0u) << bad;

        Args noflag({});
        EXPECT_NE(resolveTraceGranularity(noflag.argc(), noflag.argv(),
                                          bad, &cycles)
                      .find("usage error"),
                  std::string::npos)
            << "MAB_TRACE_GRANULARITY='" << bad << "'";
    }
}

TEST(ResolveTraceGranularity, DuplicateFlagIsAUsageError)
{
    Args args({"--trace-granularity", "10", "--trace-granularity", "20"});
    uint64_t cycles = 0;
    const std::string err = resolveTraceGranularity(
        args.argc(), args.argv(), nullptr, &cycles);
    EXPECT_NE(err.find("duplicate --trace-granularity"),
              std::string::npos)
        << err;
}

TEST(ResolveScale, UnsetIsFullScale)
{
    double f = 0.0;
    EXPECT_EQ(resolveScale(nullptr, &f), "");
    EXPECT_EQ(f, 1.0);
}

TEST(ResolveScale, AcceptsFinitePositiveNumbers)
{
    double f = 0.0;
    EXPECT_EQ(resolveScale("0.01", &f), "");
    EXPECT_EQ(f, 0.01);
    EXPECT_EQ(resolveScale("10", &f), "");
    EXPECT_EQ(f, 10.0);
    EXPECT_EQ(resolveScale("2e-3", &f), "");
    EXPECT_EQ(f, 2e-3);
}

TEST(ResolveScale, NonNumericNonFiniteOrNonPositiveIsAUsageError)
{
    // atof() runs "abc" at full scale (100x the smoke budget) and
    // lets "inf" reach the uint64_t conversion in scaled().
    for (const char *bad : {"abc", "", "0", "-0.5", "inf", "-inf", "nan",
                            "1e999", "0.5x", " "}) {
        double f = 0.0;
        const std::string err = resolveScale(bad, &f);
        EXPECT_NE(err.find("usage error"), std::string::npos)
            << "MAB_BENCH_SCALE='" << bad << "': " << err;
        EXPECT_EQ(f, 1.0) << "the out-param stays at the safe default";
    }
}

TEST(ResolveArenaEnabled, UnsetKeepsTheCurrentSetting)
{
    for (bool on : {false, true}) {
        bool enabled = on;
        EXPECT_EQ(resolveArenaEnabled(nullptr, &enabled), "");
        EXPECT_EQ(enabled, on);
    }
}

TEST(ResolveArenaEnabled, AcceptsZeroAndOne)
{
    bool enabled = true;
    EXPECT_EQ(resolveArenaEnabled("0", &enabled), "");
    EXPECT_FALSE(enabled);
    EXPECT_EQ(resolveArenaEnabled("1", &enabled), "");
    EXPECT_TRUE(enabled);
}

TEST(ResolveArenaEnabled, AnythingElseIsAUsageError)
{
    for (const char *bad :
         {"off", "false", "on", "true", "", " 0", "0 ", "00", "01", "2",
          "-1", "no"}) {
        for (bool on : {false, true}) {
            bool enabled = on;
            const std::string err = resolveArenaEnabled(bad, &enabled);
            EXPECT_NE(err.find("MAB_TRACE_ARENA"), std::string::npos)
                << "'" << bad << "': " << err;
            EXPECT_NE(err.find(std::string("'") + bad + "'"),
                      std::string::npos)
                << err;
            EXPECT_EQ(enabled, on) << bad;
        }
    }
}

TEST(ResolveArenaBudget, UnsetKeepsTheCurrentBudget)
{
    uint64_t bytes = 123;
    EXPECT_EQ(resolveArenaBudget(nullptr, &bytes), "");
    EXPECT_EQ(bytes, 123u);
}

TEST(ResolveArenaBudget, AcceptsWholeMebibytes)
{
    uint64_t bytes = 123;
    EXPECT_EQ(resolveArenaBudget("0", &bytes), "");
    EXPECT_EQ(bytes, 0u);
    EXPECT_EQ(resolveArenaBudget("512", &bytes), "");
    EXPECT_EQ(bytes, 512ull << 20);
    EXPECT_EQ(resolveArenaBudget("17592186044415", &bytes), "");
    EXPECT_EQ(bytes, ((1ull << 44) - 1) << 20); // largest that fits
}

TEST(ResolveArenaBudget, SignsSuffixesAndWrappingValuesAreUsageErrors)
{
    for (const char *bad :
         {"-1", "+5", "512MB", "abc", "", " 5", "1e3", "17592186044416",
          "18446744073709551615", "18446744073709551616"}) {
        uint64_t bytes = 123;
        const std::string err = resolveArenaBudget(bad, &bytes);
        EXPECT_NE(err.find("MAB_TRACE_ARENA_MB"), std::string::npos)
            << "'" << bad << "': " << err;
        EXPECT_NE(err.find(std::string("'") + bad + "'"),
                  std::string::npos)
            << err;
        EXPECT_EQ(bytes, 123u) << bad;
    }
}

TEST(ScaleBudget, TruncatesAndNeverConvertsOutOfRange)
{
    EXPECT_EQ(scaleBudget(1'000'000, 0.01), 10'000u);
    EXPECT_EQ(scaleBudget(1'000'000, 1.0), 1'000'000u);
    EXPECT_EQ(scaleBudget(3, 0.5), 1u);
    EXPECT_EQ(scaleBudget(1'000'000, 1e30), UINT64_MAX);
    EXPECT_EQ(scaleBudget(1, std::numeric_limits<double>::infinity()),
              UINT64_MAX);
    EXPECT_EQ(scaleBudget(1, std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(scaleBudget(1'000'000, -2.0), 0u);
}

} // namespace
} // namespace mab::bench
