// Unit tests for the util substrate: deterministic RNG, CLI parsing, the
// MGGCN_* knobs, tables, formatting, the blocking queue the stream
// workers use, and the fork-join parallel_for of the host preparation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm_mode.hpp"
#include "core/cache_mode.hpp"
#include "core/inference_server.hpp"
#include "core/part_mode.hpp"
#include "core/plan_mode.hpp"
#include "core/serve_mode.hpp"
#include "dense/kernel_policy.hpp"
#include "mem/pool_mode.hpp"
#include "scoped_env.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/knob.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mggcn::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a() == b() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(9);
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.uniform_index(n), n);
    }
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(3);
  const auto p = rng.permutation<std::uint32_t>(1000);
  std::vector<bool> seen(1000, false);
  for (const auto v : p) {
    ASSERT_LT(v, 1000u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.fork();
  // Child draws must not equal parent draws shifted trivially.
  EXPECT_NE(a(), child());
}

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli("test");
  cli.option("alpha", "1", "a").option("name", "x", "n").flag("verbose", "v");
  const char* argv[] = {"prog", "--alpha", "42", "--verbose",
                        "--name=hello"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("name"), "hello");
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.help_requested());
}

TEST(Cli, DefaultsApply) {
  CliParser cli("test");
  cli.option("x", "7", "x");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("x"), 7);
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgumentError);
}

TEST(Cli, IntListParsing) {
  CliParser cli("test");
  cli.option("gpus", "1,2,4,8", "g");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int_list("gpus"),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Cli, HelpRequested) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_FALSE(cli.help().empty());
}

// A malformed numeric value must fail loudly and name the offending flag —
// "--alpha 5x" silently parsing as 5 once corrupted an experiment sweep.
TEST(Cli, StrictIntRejectsTrailingGarbage) {
  CliParser cli("test");
  cli.option("alpha", "1", "a");
  const char* argv[] = {"prog", "--alpha", "5x"};
  cli.parse(3, argv);
  try {
    (void)cli.get_int("alpha");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5x"), std::string::npos);
  }
}

TEST(Cli, StrictIntRejectsNonNumericAndEmpty) {
  CliParser cli("test");
  cli.option("alpha", "nope", "a").option("beta", "", "b");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("alpha"), InvalidArgumentError);
  EXPECT_THROW((void)cli.get_int("beta"), InvalidArgumentError);
}

TEST(Cli, StrictDoubleRejectsTrailingGarbage) {
  CliParser cli("test");
  cli.option("rate", "1.0", "r");
  const char* argv[] = {"prog", "--rate=2.5qps"};
  cli.parse(2, argv);
  try {
    (void)cli.get_double("rate");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
  }
  const char* argv2[] = {"prog", "--rate", "0.125"};
  cli.parse(3, argv2);
  EXPECT_EQ(cli.get_double("rate"), 0.125);
}

TEST(Cli, IntListRejectsBadItemNamingFlag) {
  CliParser cli("test");
  cli.option("gpus", "1,2,4x,8", "g");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  try {
    (void)cli.get_int_list("gpus");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--gpus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4x"), std::string::npos);
  }
}

TEST(Cli, BoolAcceptsDocumentedTokensOnly) {
  CliParser cli("test");
  cli.option("check", "true", "c");
  const char* argv0[] = {"prog"};
  for (const char* token : {"true", "1", "yes", "on"}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    EXPECT_TRUE(cli.get_bool("check")) << token;
  }
  for (const char* token : {"false", "0", "no", "off"}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    EXPECT_FALSE(cli.get_bool("check")) << token;
  }
  // "TRUE", "2", "enabled" used to coerce to false silently.
  for (const char* token : {"TRUE", "2", "enabled", ""}) {
    const char* argv[] = {"prog", "--check", token};
    cli.parse(3, argv);
    try {
      (void)cli.get_bool("check");
      FAIL() << "expected InvalidArgumentError for '" << token << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("--check"), std::string::npos);
    }
  }
  (void)argv0;
}

// --- util::Knob: one table-driven test over every MGGCN_* knob -----------

template <typename Enum>
void check_enum_knob(Knob<Enum>& knob, const std::string& legal) {
  SCOPED_TRACE(knob.env_name());
  const NameTable names = knob.names();
  // The legal-token list is the historical one, so error text is unchanged.
  EXPECT_EQ(knob.legal(), legal);

  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto value = static_cast<Enum>(i);
    EXPECT_STREQ(knob.name(value), names[i]);
    EXPECT_EQ(knob.parse(names[i]), value);
    EXPECT_EQ(knob.parse_or_throw(names[i], "--flag"), value);
  }
  EXPECT_FALSE(knob.parse("bogus").has_value());
  EXPECT_FALSE(knob.parse("").has_value());
  EXPECT_THROW(knob.set(static_cast<Enum>(names.size())),
               InvalidArgumentError);
  try {
    (void)knob.parse_or_throw("bogus", "--flag");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--flag must be " + legal +
                                         ", got 'bogus'"),
              std::string::npos)
        << e.what();
  }

  // Scoped overrides nest and restore the previous value.
  const Enum before = knob.get();
  const auto first = static_cast<Enum>(0);
  const auto last = static_cast<Enum>(names.size() - 1);
  {
    typename Knob<Enum>::Scoped outer(knob, first);
    EXPECT_EQ(knob.get(), first);
    {
      typename Knob<Enum>::Scoped inner(knob, last);
      EXPECT_EQ(knob.get(), last);
    }
    EXPECT_EQ(knob.get(), first);
  }
  EXPECT_EQ(knob.get(), before);

  // A fresh knob reads its variable lazily: a typo throws on the first
  // get() (not at construction), naming the variable and every token, and
  // keeps throwing until the value is fixed.
  Knob<Enum> fresh("MGGCN_TEST_KNOB", first, names);
  ScopedEnv env("MGGCN_TEST_KNOB", "bogus");
  try {
    (void)fresh.get();
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MGGCN_TEST_KNOB must be " + legal + ", got 'bogus'"),
              std::string::npos)
        << what;
    for (const char* token : names) {
      EXPECT_NE(what.find(std::string("'") + token + "'"), std::string::npos);
    }
  }
  EXPECT_THROW((void)fresh.get(), InvalidArgumentError);
  setenv("MGGCN_TEST_KNOB", names[names.size() - 1], 1);
  EXPECT_EQ(fresh.get(), last);
}

TEST(Knob, EveryEnumKnobRoundTripsRejectsAndScopes) {
  check_enum_knob(dense::kernel_policy_knob, "'naive', 'tiled', or 'planned'");
  check_enum_knob(comm::comm_mode_knob, "'dense', 'compact', or 'auto'");
  check_enum_knob(core::plan_mode_knob,
                  "'1d', '15d', 'replicated', or 'auto'");
  check_enum_knob(core::part_mode_knob,
                  "'random', 'balanced', 'locality', 'hier', or 'auto'");
  check_enum_knob(core::cache_mode_knob,
                  "'off', 'static', 'freq', or 'auto'");
  check_enum_knob(core::serve_cache_knob, "'off', 'embed', or 'auto'");
  check_enum_knob(mem::pool_mode_knob, "'off', 'on', or 'auto'");
}

template <typename T>
void check_scalar_knob(Knob<T>& knob, std::optional<T> below, T above) {
  SCOPED_TRACE(knob.env_name());
  const T before = knob.get();
  if (below.has_value()) {
    EXPECT_THROW(knob.set(*below), InvalidArgumentError);
  }
  try {
    knob.set(above);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find(std::string(knob.env_name()) +
                                         " must be " + knob.legal()),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(knob.get(), before);  // a rejected set() changes nothing
}

TEST(Knob, EveryScalarKnobRejectsOutOfRangeSet) {
  check_scalar_knob(core::cache_cap_knob, {-0.01}, 1.01);
  check_scalar_knob<std::int64_t>(core::serve_batch_knob, {0}, 100000);
  check_scalar_knob(core::serve_slack_knob, {-1.0}, 1e6 + 1.0);
  check_scalar_knob<std::uint64_t>(
      mem::pool_budget_knob, std::nullopt,
      static_cast<std::uint64_t>(std::numeric_limits<long long>::max()) + 1);
  EXPECT_EQ(core::serve_batch_knob.legal(), "an integer in [1, 4096]");
  EXPECT_EQ(core::cache_cap_knob.legal(), "a fraction in [0, 1]");
}

TEST(Knob, IntegerEnvIsFullConsumptionAndRangeChecked) {
  ScopedEnv env("MGGCN_TEST_INT", "");
  EXPECT_EQ(Knob<std::int64_t>("MGGCN_TEST_INT", 7, 1, 100).get(), 7);
  setenv("MGGCN_TEST_INT", "42", 1);
  EXPECT_EQ(Knob<std::int64_t>("MGGCN_TEST_INT", 7, 1, 100).get(), 42);
  for (const char* bad : {"42x", "abc", "1e3", "0", "101"}) {
    setenv("MGGCN_TEST_INT", bad, 1);
    Knob<std::int64_t> knob("MGGCN_TEST_INT", 7, 1, 100);
    try {
      (void)knob.get();
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "MGGCN_TEST_INT must be an integer in [1, 100], got '" +
                    std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // An unsigned knob rejects a sign instead of wrapping it around.
  setenv("MGGCN_TEST_INT", "-1", 1);
  EXPECT_THROW(
      (void)Knob<std::uint64_t>("MGGCN_TEST_INT", 0, 0, 10).get(),
      InvalidArgumentError);
}

TEST(Knob, DoubleEnvIsFullConsumptionAndNamesTheKnob) {
  ScopedEnv env("MGGCN_TEST_DOUBLE", "0.25");
  EXPECT_EQ(
      Knob<double>("MGGCN_TEST_DOUBLE", 0.5, 0.0, 1.0, "a fraction").get(),
      0.25);
  for (const char* bad : {"0.25x", "lots", "-0.1", "1.5"}) {
    setenv("MGGCN_TEST_DOUBLE", bad, 1);
    Knob<double> knob("MGGCN_TEST_DOUBLE", 0.5, 0.0, 1.0, "a fraction");
    try {
      (void)knob.get();
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("MGGCN_TEST_DOUBLE must be a "
                                           "fraction, got '" +
                                           std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Knob, SetBeforeFirstGetPreemptsTheEnvironment) {
  ScopedEnv env("MGGCN_TEST_INT", "bogus");
  Knob<std::int64_t> knob("MGGCN_TEST_INT", 7, 1, 100);
  knob.set(9);
  EXPECT_EQ(knob.get(), 9);
}

TEST(Knob, BatchPolicyNameTableRoundTrips) {
  for (std::size_t i = 0; i < core::kBatchPolicyNames.size(); ++i) {
    const auto policy = static_cast<core::BatchPolicy>(i);
    EXPECT_EQ(parse_enum<core::BatchPolicy>(core::kBatchPolicyNames,
                                            core::batch_policy_name(policy)),
              policy);
  }
  EXPECT_FALSE(parse_enum<core::BatchPolicy>(core::kBatchPolicyNames,
                                             "batched")
                   .has_value());
  EXPECT_EQ(token_list(core::kBatchPolicyNames),
            "'per-request', 'fixed', or 'deadline'");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| xx | y    |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3ULL << 30), "3.00 GiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0025), "2.500 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.500 us");
}

TEST(Format, Speedup) { EXPECT_EQ(format_speedup(1.5), "1.50x"); }

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::int64_t n : {2, 3, 1000}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    parallel_for(n, [&](std::int64_t i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " of " << n;
    }
  }
}

TEST(ParallelFor, ThrowingBodySurfacesAsCatchableException) {
  std::atomic<int> started{0};
  try {
    parallel_for(64, [&](std::int64_t i) {
      started.fetch_add(1);
      if (i == 5) throw InvalidArgumentError("body 5 failed");
    });
    FAIL() << "no exception";
  } catch (const InvalidArgumentError& e) {
    EXPECT_STREQ(e.what(), "body 5 failed");
  }
  EXPECT_GE(started.load(), 1);
  // Inline (n == 1) bodies throw straight through as well.
  EXPECT_THROW(parallel_for(1, [](std::int64_t) { throw CommError("x", 1); }),
               CommError);
}

TEST(ParallelFor, ZeroAndOneRunInline) {
  int calls = 0;
  parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    MGGCN_CHECK_MSG(false, "context");
    FAIL();
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mggcn::util
