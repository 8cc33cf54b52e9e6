// The shared command-line parser: option and positional tables, the
// error messages every tool prints, and whole-string number parsing.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

namespace tevot::util {
namespace {

/// Runs flags.parse over {"tool", args...}; returns the verdict and
/// stores what it printed to stderr in *err.
bool parseArgs(const Flags& flags, std::initializer_list<const char*> args,
               std::string* err = nullptr) {
  std::vector<std::string> storage = {"tool"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  const bool ok = flags.parse(static_cast<int>(argv.size()), argv.data());
  const std::string printed = testing::internal::GetCapturedStderr();
  if (err != nullptr) *err = printed;
  return ok;
}

TEST(FlagsTest, MissingValueAndUnknownOptionAreRefusedWithAMessage) {
  int n = 7;
  Flags flags("tool", "usage\n");
  flags.option("--n", count(&n));
  std::string err;
  EXPECT_FALSE(parseArgs(flags, {"--n"}, &err));
  EXPECT_EQ(err, "tool: --n needs a value\n");
  EXPECT_FALSE(parseArgs(flags, {"--m", "3"}, &err));
  EXPECT_EQ(err, "tool: unknown option --m\n");
  EXPECT_FALSE(parseArgs(flags, {"--n", "x"}, &err));
  EXPECT_EQ(err, "tool: bad value for --n: 'x'\n");
  EXPECT_EQ(n, 7);
  testing::internal::CaptureStderr();
  EXPECT_EQ(flags.usage(), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "usage\n");
}

TEST(FlagsTest, EqualsFormMatchesSeparateValue) {
  double a = 0.0, b = 0.0;
  Flags fa("tool", ""), fb("tool", "");
  fa.option("--ms", nonNegative(&a));
  fb.option("--ms", nonNegative(&b));
  EXPECT_TRUE(parseArgs(fa, {"--ms=2.5"}));
  EXPECT_TRUE(parseArgs(fb, {"--ms", "2.5"}));
  EXPECT_EQ(a, 2.5);
  EXPECT_EQ(a, b);
  // Only the first '=' splits; the rest belongs to the value.
  std::string text_value;
  Flags ft("tool", "");
  ft.option("--label", text(&text_value));
  EXPECT_TRUE(parseArgs(ft, {"--label=a=b"}));
  EXPECT_EQ(text_value, "a=b");
  EXPECT_TRUE(parseArgs(ft, {"--label="}));
  EXPECT_EQ(text_value, "");
}

TEST(FlagsTest, LastRepeatedOptionWins) {
  int n = 0;
  bool seen = false;
  Flags flags("tool", "usage\n");
  flags.option("--n", count(&n)).flag("--on", &seen);
  EXPECT_TRUE(parseArgs(flags, {"--n", "1", "--on", "--n=3", "--on"}));
  EXPECT_EQ(n, 3);
  EXPECT_TRUE(seen);
}

TEST(FlagsTest, PresenceFlagTakesNoValue) {
  bool seen = false;
  Flags flags("tool", "usage\n");
  flags.flag("--on", &seen);
  std::string err;
  EXPECT_FALSE(parseArgs(flags, {"--on=1"}, &err));
  EXPECT_EQ(err, "tool: bad value for --on: '1'\n");
  EXPECT_FALSE(seen);
}

TEST(FlagsTest, NumbersParseWhole) {
  int i = 5;
  std::size_t u = 5;
  double d = 5.0;
  for (const char* bad : {"", "12z", "1x", " 1", "1 ", "+1", "0x10", "1.5",
                          "99999999999999999999"}) {
    EXPECT_FALSE(inRange(&i, 0)(bad)) << "'" << bad << "'";
  }
  for (const char* bad : {"-1", "-0", "18446744073709551616"}) {
    EXPECT_FALSE(count(&u)(bad)) << bad;  // sign on unsigned, overflow
  }
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "", "2.5ms",
                          "abc"}) {
    EXPECT_FALSE(finite(&d)(bad)) << "'" << bad << "'";
    EXPECT_FALSE(nonNegative(&d)(bad)) << "'" << bad << "'";
  }
  EXPECT_EQ(i, 5);
  EXPECT_EQ(u, 5u);
  EXPECT_EQ(d, 5.0);
  EXPECT_TRUE(finite(&d)("-2.5e-3"));
  EXPECT_EQ(d, -2.5e-3);
}

TEST(FlagsTest, RangesAreChecked) {
  int n = 0, p = 0;
  double d = 0.0;
  std::size_t j = 0;
  EXPECT_FALSE(count(&n)("0"));
  EXPECT_TRUE(count(&n)("1"));
  EXPECT_TRUE(port(&p)("0"));
  EXPECT_TRUE(port(&p)("65535"));
  EXPECT_FALSE(port(&p)("65536"));
  EXPECT_FALSE(port(&p, 1)("0"));
  EXPECT_FALSE(port(&p)("-1"));
  EXPECT_FALSE(nonNegative(&d)("-0.5"));
  EXPECT_TRUE(nonNegative(&d)("0"));
  EXPECT_FALSE(positive(&d)("0"));
  EXPECT_TRUE(fraction(&d)("1"));
  EXPECT_FALSE(fraction(&d)("1.01"));
  EXPECT_TRUE(jobs(&j)("0"));
  EXPECT_TRUE(jobs(&j)(std::to_string(kMaxJobs)));
  EXPECT_EQ(j, kMaxJobs);
  EXPECT_FALSE(jobs(&j)(std::to_string(kMaxJobs + 1)));
  EXPECT_FALSE(jobs(&j)("-1"));
  EXPECT_EQ(j, kMaxJobs);
}

TEST(FlagsTest, SeedsAndWordsTakeStrtoullBases) {
  std::uint64_t s = 0;
  std::uint32_t w = 0;
  EXPECT_TRUE(seed(&s)("0x1F"));
  EXPECT_EQ(s, 31u);
  EXPECT_TRUE(seed(&s)("0XfF"));
  EXPECT_EQ(s, 255u);
  EXPECT_TRUE(seed(&s)("010"));
  EXPECT_EQ(s, 8u);
  EXPECT_TRUE(seed(&s)("0"));
  EXPECT_EQ(s, 0u);
  EXPECT_TRUE(seed(&s)("18446744073709551615"));
  EXPECT_EQ(s, UINT64_MAX);
  for (const char* bad : {"", "0x", "0x-1", "-1", "+1", "08", "0x1g",
                          "12z", "seven", "18446744073709551616"}) {
    EXPECT_FALSE(seed(&s)(bad)) << "'" << bad << "'";
  }
  EXPECT_EQ(s, UINT64_MAX);
  EXPECT_TRUE(word(&w)("0xffffffff"));
  EXPECT_EQ(w, 0xffffffffu);
  EXPECT_FALSE(word(&w)("0x100000000"));
  EXPECT_TRUE(word(&w)("4294967295"));
  EXPECT_FALSE(word(&w)("4294967296"));
}

TEST(FlagsTest, GridIsTwoCounts) {
  int nv = 0, nt = 0;
  EXPECT_TRUE(grid(&nv, &nt)("3x4"));
  EXPECT_EQ(nv, 3);
  EXPECT_EQ(nt, 4);
  for (const char* bad : {"", "x", "3x", "x4", "3x4x5", "0x4", "3x0", "3X4",
                          "3 x4", "-3x4", "nonsense"}) {
    EXPECT_FALSE(grid(&nv, &nt)(bad)) << "'" << bad << "'";
  }
  EXPECT_EQ(nv, 3);
  EXPECT_EQ(nt, 4);
}

TEST(FlagsTest, PositionalsFillInOrder) {
  std::string name;
  double v = 0.0;
  int n = 9;
  Flags flags("tool", "usage\n");
  flags.arg("<name>", text(&name))
      .arg("<V>", finite(&v))
      .arg("[n]", count(&n), Flags::Arity::kOptional);
  std::string err;
  EXPECT_FALSE(parseArgs(flags, {"a"}, &err));
  EXPECT_EQ(err, "tool: missing <V>\n");
  EXPECT_FALSE(parseArgs(flags, {"a", "1", "2", "3"}, &err));
  EXPECT_EQ(err, "tool: unexpected argument '3'\n");
  EXPECT_FALSE(parseArgs(flags, {"a", "abc"}, &err));
  EXPECT_EQ(err, "tool: bad value for <V>: 'abc'\n");
  // A negative number is a positional, not an option.
  EXPECT_TRUE(parseArgs(flags, {"a", "-25"}));
  EXPECT_EQ(v, -25.0);
  EXPECT_TRUE(parseArgs(flags, {"b", "-.5", "4"}));
  EXPECT_EQ(name, "b");
  EXPECT_EQ(v, -0.5);
  EXPECT_EQ(n, 4);
}

TEST(FlagsTest, RepeatedPositionalTakesTheRestAroundOptions) {
  std::vector<std::string> names;
  bool all = false;
  Flags flags("tool", "usage\n");
  flags.flag("--all", &all).arg(
      "<name>",
      [&](std::string_view name) {
        names.emplace_back(name);
        return name != "bad";
      },
      Flags::Arity::kAny);
  EXPECT_TRUE(parseArgs(flags, {}));
  EXPECT_TRUE(parseArgs(flags, {"a", "--all", "b", "c"}));
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(all);
  EXPECT_FALSE(parseArgs(flags, {"bad"}));
  // "-x" is an option even where a positional could go.
  std::string err;
  EXPECT_FALSE(parseArgs(flags, {"-x"}, &err));
  EXPECT_EQ(err, "tool: unknown option -x\n");
}

TEST(FlagsTest, RestModeStopsAtTheFirstPositional) {
  std::size_t jobs = 1;
  Flags flags("tool", "usage\n");
  flags.option("--jobs", util::jobs(&jobs));
  std::vector<std::string> storage = {"tool", "--jobs=4", "run", "--x"};
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  int rest = -1;
  EXPECT_TRUE(flags.parse(4, argv.data(), 1, &rest));
  EXPECT_EQ(rest, 2);
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(flags.parse(2, argv.data(), 1, &rest));
  EXPECT_EQ(rest, 2);  // no positional: argc
}

TEST(FlagsTest, EnvironmentKnobsParseBeforeFlags) {
  std::size_t jobs_value = 1;
  Flags flags("tool", "usage\n");
  flags.env("TEVOT_FLAGS_TEST_JOBS", jobs(&jobs_value))
      .option("--jobs", jobs(&jobs_value));
  ::unsetenv("TEVOT_FLAGS_TEST_JOBS");
  EXPECT_TRUE(parseArgs(flags, {}));
  EXPECT_EQ(jobs_value, 1u);
  ::setenv("TEVOT_FLAGS_TEST_JOBS", "", 1);  // empty keeps the default
  EXPECT_TRUE(parseArgs(flags, {}));
  EXPECT_EQ(jobs_value, 1u);
  ::setenv("TEVOT_FLAGS_TEST_JOBS", "3", 1);
  EXPECT_TRUE(parseArgs(flags, {}));
  EXPECT_EQ(jobs_value, 3u);
  EXPECT_TRUE(parseArgs(flags, {"--jobs", "2"}));  // the flag wins
  EXPECT_EQ(jobs_value, 2u);
  ::setenv("TEVOT_FLAGS_TEST_JOBS", "abc", 1);
  std::string err;
  EXPECT_FALSE(parseArgs(flags, {"--jobs", "2"}, &err));
  EXPECT_EQ(err, "tool: bad value for TEVOT_FLAGS_TEST_JOBS: 'abc'\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parseEnv());
  testing::internal::GetCapturedStderr();
  ::unsetenv("TEVOT_FLAGS_TEST_JOBS");
}

}  // namespace
}  // namespace tevot::util
