// Unit tests for the support layer: RNGs, statistics, formatting, tables,
// and option parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "bench/bench_common.hpp"
#include "support/format.hpp"
#include "support/types.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace lpomp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRangeRespected) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double(-2.5, 7.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 7.5);
  }
}

TEST(Rng, ReseedReproduces) {
  Rng rng(5);
  const std::uint64_t first = rng.next_u64();
  rng.next_u64();
  rng.reseed(5);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Rng, CoversValueSpace) {
  // Sanity: 64 draws below 16 should hit most buckets.
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) seen.insert(rng.next_below(16));
  EXPECT_GE(seen.size(), 14u);
}

TEST(NasRng, MatchesReferenceFirstValues) {
  // Reference values from the NPB randlc with the standard seed: the first
  // draw is x1 = a*seed mod 2^46, scaled by 2^-46.
  NasRng rng;
  const double v1 = rng.randlc();
  EXPECT_GT(v1, 0.0);
  EXPECT_LT(v1, 1.0);
  // Determinism.
  NasRng rng2;
  EXPECT_DOUBLE_EQ(rng2.randlc(), v1);
}

TEST(NasRng, VranlcFillsConsistently) {
  NasRng a, b;
  double buf[16];
  a.vranlc(16, buf);
  for (double v : buf) EXPECT_DOUBLE_EQ(v, b.randlc());
}

TEST(NasRng, StateAdvances) {
  NasRng rng;
  const double s0 = rng.state();
  rng.randlc();
  EXPECT_NE(rng.state(), s0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double(-10, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Log2Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(2), 1u);  // 4..7
  EXPECT_EQ(h.total(), 5u);
}

TEST(Log2Histogram, QuantileUpperBound) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(1000);
  EXPECT_LE(h.quantile_upper_bound(0.5), 2u);
  EXPECT_GE(h.quantile_upper_bound(0.99), 1000u);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(KiB(4)), "4KB");
  EXPECT_EQ(format_bytes(MiB(371)), "371MB");
  EXPECT_EQ(format_bytes(static_cast<std::uint64_t>(2.4 * 1024) * MiB(1)),
            "2.4GB");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.25), "25.0%");
  EXPECT_EQ(format_percent(0.013), "1.3%");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(0.12345), "0.1235");
  EXPECT_EQ(format_seconds(12.345), "12.35");
}

TEST(Format, CountCompactsLargeValues) {
  EXPECT_EQ(format_count(99), "99");
  EXPECT_EQ(format_count(1240000), "1.24e+06");
}

TEST(TextTable, PrintsAlignedRows) {
  TextTable t({"a", "bbbb"});
  t.add_row({"x", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("| bbbb "), std::string::npos);
  EXPECT_NE(out.find("| x "), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--threads=8", "--verbose", "CG"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("threads", 1), 8);
  EXPECT_TRUE(opts.get_flag("verbose"));
  EXPECT_FALSE(opts.get_flag("quiet"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "CG");
}

TEST(Options, EnvFallback) {
  ::setenv("LPOMP_TEST_KNOB", "37", 1);
  Options opts;
  EXPECT_EQ(opts.get_int("test-knob", 0), 37);
  ::unsetenv("LPOMP_TEST_KNOB");
  EXPECT_EQ(opts.get_int("test-knob", 5), 5);
}

TEST(Options, CommandLineBeatsEnv) {
  ::setenv("LPOMP_DEPTH", "1", 1);
  const char* argv[] = {"prog", "--depth=2"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("depth", 0), 2);
  ::unsetenv("LPOMP_DEPTH");
}

TEST(Options, DoubleParsing) {
  const char* argv[] = {"prog", "--alpha=0.25"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(opts.get_double("alpha", 0.0), 0.25);
}

// Malformed numbers are rejected, never truncated to whatever prefix
// strtol/strtod could read (the old behaviour turned "4x" into 4 and ""
// into 0).
TEST(Options, RejectsEmptyAndTrailingGarbageNumbers) {
  const char* argv[] = {"prog",       "--n=",     "--m=4x", "--k= 7 ",
                        "--big=99999999999999999999", "--x=0.5s", "--y=",
                        "--ok=-3",    "--hex=0x10"};
  Options opts(9, const_cast<char**>(argv));
  EXPECT_THROW(opts.get_int("n", 1), OptionError);
  EXPECT_THROW(opts.get_int("m", 1), OptionError);
  EXPECT_THROW(opts.get_int("k", 1), OptionError);
  EXPECT_THROW(opts.get_int("big", 1), OptionError);
  EXPECT_THROW(opts.get_int("hex", 1), OptionError);
  EXPECT_THROW(opts.get_double("x", 1.0), OptionError);
  EXPECT_THROW(opts.get_double("y", 1.0), OptionError);
  EXPECT_EQ(opts.get_int("ok", 1), -3);
  EXPECT_EQ(opts.get_int("absent", 5), 5);
}

TEST(Options, EnvValuesAreValidatedToo) {
  ::setenv("LPOMP_TEST_BAD_KNOB", "12abc", 1);
  Options opts;
  EXPECT_THROW(opts.get_int("test-bad-knob", 0), OptionError);
  ::unsetenv("LPOMP_TEST_BAD_KNOB");
}

/// Options holding the single command-line token `arg`.
Options options_of(const std::string& arg) {
  Options opts;
  opts.parse_arg(arg);
  return opts;
}

TEST(Options, RequireKnownNamesTheUnknownKeyAndTheValidOnes) {
  const Options opts = options_of("--stratgey=live");
  opts.require_known({"stratgey"});
  try {
    opts.require_known({"strategy", "klass"});
    FAIL() << "an unknown key was accepted";
  } catch (const OptionError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown option --stratgey (valid: --strategy, --klass)");
  }
  EXPECT_THROW(opts.require_known({}), OptionError);
  // Positional tokens are not keys.
  Options kernel(1);
  kernel.parse_arg("CG");
  kernel.require_known({});
}

// A bare token is an argument only where the driver declares one (a
// kernel name, a subcommand): `sweep_all workers=-1` must not run the
// default sweep and exit 0.
TEST(Options, RequireKnownRejectsUndeclaredPositionalTokens) {
  try {
    options_of("workers=-1").require_known({"workers"});
    FAIL() << "a stray positional token was accepted";
  } catch (const OptionError& e) {
    EXPECT_STREQ(e.what(),
                 "unexpected argument 'workers=-1' (options take the form "
                 "--key=value)");
  }
  Options one(1);
  one.parse_arg("CG");
  one.require_known({});
  one.parse_arg("MG");
  EXPECT_THROW(one.require_known({}), OptionError);
}

// Unsigned values (seeds, thread counts) never wrap: "-1" is rejected
// instead of becoming 2^64 - 1, and a 0x spelling reads as hex.
TEST(Options, UnsignedRejectsNegativeGarbageAndOutOfRange) {
  EXPECT_EQ(options_of("--seed=0x5eed").get_unsigned("seed", 0), 0x5eedu);
  EXPECT_EQ(options_of("--seed=7").get_unsigned("seed", 0), 7u);
  EXPECT_EQ(Options{}.get_unsigned("seed", 0x5eed), 0x5eedu);
  for (const char* bad : {"--seed=-1", "--seed=abc", "--seed=", "--seed=4x",
                          "--seed=99999999999999999999"}) {
    EXPECT_THROW(options_of(bad).get_unsigned("seed", 0), OptionError) << bad;
  }
  EXPECT_EQ(Options::to_unsigned("threads", "4294967295", 4294967295u),
            4294967295u);
  EXPECT_THROW(Options::to_unsigned("threads", "4294967296", 4294967295u),
               OptionError);
}

// A count with a minimum (threads, ranks, rounds) rejects a value below it
// with the accepted range in the message; the bounds themselves pass.
TEST(Options, UnsignedRejectsValuesBelowTheMinimum) {
  EXPECT_EQ(options_of("--threads=1").get_unsigned("threads", 4, 8, 1), 1u);
  EXPECT_EQ(options_of("--threads=8").get_unsigned("threads", 4, 8, 1), 8u);
  EXPECT_EQ(Options{}.get_unsigned("threads", 4, 8, 1), 4u);
  for (const char* bad : {"--threads=0", "--threads=-1", "--threads=9"}) {
    try {
      (void)options_of(bad).get_unsigned("threads", 4, 8, 1);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find("from 1 to 8"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(Options::to_unsigned("threads", "0", 8), 0u);  // min defaults to 0
  EXPECT_THROW(Options::to_unsigned("threads", "0", 8, 1), OptionError);
}

TEST(Names, SplitListKeepsEmptyTokens) {
  EXPECT_EQ(split_list("CG,MG"), (std::vector<std::string>{"CG", "MG"}));
  EXPECT_EQ(split_list(""), std::vector<std::string>{""});
  EXPECT_EQ(split_list("a,,b,"),
            (std::vector<std::string>{"a", "", "b", ""}));
  EXPECT_EQ(split_list("x;y", ';'), (std::vector<std::string>{"x", "y"}));
}

TEST(Names, LayoutPageKindsRoundTripAndOneGigIsNotALayout) {
  for (const PageKind k : kLayoutPageKinds.all()) {
    EXPECT_EQ(page_kind_from_name(page_kind_name(k)), k);
  }
  EXPECT_FALSE(page_kind_from_name("1GB"));
  EXPECT_FALSE(page_kind_from_name("2mb"));
  EXPECT_FALSE(page_kind_from_name(""));
}

// An uncaught OptionError in a command-line program exits 2 with its
// message instead of aborting. (The noexcept lambda stands in for main:
// the exception escapes into std::terminate instead of gtest's catch.)
TEST(OptionsDeathTest, UncaughtOptionErrorExitsTwo) {
  const char* argv[] = {"prog", "--workers=4x"};
  EXPECT_EXIT(
      [&]() noexcept {
        const Options opts(2, const_cast<char**>(argv));
        opts.get_int("workers", 0);
      }(),
      ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchOptions, KlassByNameRejectsUnknownClasses) {
  const auto klass_by_name = [](const std::string& name) {
    return bench::klass_from(options_of("--klass=" + name), "R");
  };
  EXPECT_EQ(klass_by_name("S"), npb::Klass::S);
  EXPECT_EQ(klass_by_name("R"), npb::Klass::R);
  EXPECT_THROW(klass_by_name("s"), OptionError);
  EXPECT_THROW(klass_by_name(""), OptionError);
  EXPECT_THROW(klass_by_name("C"), OptionError);
}

/// Reads every option a scheduler-backed bench parses, after checking the
/// keys the way a driver does. An exception is handed to std::terminate
/// while it is still the current exception, as it is when one escapes a
/// bench's main, so an OptionError reaches the Options terminate handler
/// (exit 2). (A noexcept function is not enough: once the throw is inlined
/// into it, an optimising build may call std::terminate with no current
/// exception, and the handler aborts.)
void parse_bench_options(const Options& opts) {
  try {
    opts.require_known({"klass", "kernels", "platform", "pages"},
                       bench::kPagingKeys, bench::kSchedulerKeys,
                       bench::kJsonKeys, bench::kStrategyKeys);
    bench::workers_from(opts);
    bench::paging_from(opts);
    bench::platform_from(opts);
    bench::page_kind_from(opts, "pages");
    bench::klass_from(opts, "R");
    bench::kernels_from(opts);
    opts.get_flag("json-host");
  } catch (...) {
    std::terminate();
  }
}

// A negative worker count, malformed values at the other bench boundaries
// (THP model, platform, layout page kind, class, kernels, boolean flags)
// and an unknown option key all exit 2.
TEST(BenchOptionsDeathTest, NegativeWorkersExitTwo) {
  for (const auto& [arg, message] :
       {std::pair{"--workers=-1", "must be >= 0"},
        std::pair{"--thp-seed=abc", "expected an unsigned integer"},
        std::pair{"--thp-interval=-1", "must be in"},
        std::pair{"--json-host=maybe", "expected 1/0"},
        std::pair{"--platform=foo", "unknown platform 'foo'"},
        std::pair{"--pages=1GB", "unknown page kind '1GB' .valid: 4KB, 2MB"},
        std::pair{"--klass=Q", "unknown class 'Q' .valid: S, W, A, B, R"},
        std::pair{"--kernels=cg", "unknown kernel 'cg' .valid: BT, CG"},
        std::pair{"--stratgey=live", "unknown option --stratgey"}}) {
    const char* argv[] = {"prog", arg};
    const Options opts(2, const_cast<char**>(argv));
    EXPECT_EXIT(parse_bench_options(opts), ::testing::ExitedWithCode(2),
                message)
        << arg;
  }
}

// name -> parse -> name is the identity for every entry of every axis
// table at the CLI boundary, and a name outside the table is an
// OptionError.
TEST(BenchOptions, AxisNamesRoundTripThroughCliHelpers) {
  for (const npb::Kernel k : npb::all_kernels()) {
    const std::string name = npb::kernel_name(k);
    EXPECT_EQ(bench::kernels_from(options_of("--kernels=" + name)),
              std::vector<npb::Kernel>{k});
  }
  for (const npb::Klass k : npb::all_klasses()) {
    const std::string name = npb::klass_name(k);
    EXPECT_EQ(npb::klass_name(bench::klass_from(options_of("--klass=" + name),
                                                "R")),
              name);
  }
  for (const PageKind k : kLayoutPageKinds.all()) {
    const std::string name = page_kind_name(k);
    EXPECT_EQ(page_kind_name(bench::page_kind_from(
                  options_of("--code-pages=" + name), "code-pages")),
              name);
  }
  for (const std::string key : sim::kPlatformKeys.names) {
    const sim::ProcessorSpec spec =
        bench::platform_from(options_of("--platform=" + key));
    EXPECT_EQ(spec.name, sim::ProcessorSpec::from_key(key)->name);
  }
  EXPECT_EQ(sim::ProcessorSpec::from_key("opteron")->name,
            sim::ProcessorSpec::opteron270().name);
  EXPECT_EQ(sim::ProcessorSpec::from_key("xeon")->name,
            sim::ProcessorSpec::xeon_ht().name);
  EXPECT_EQ(sim::ProcessorSpec::from_key("modern")->name,
            sim::ProcessorSpec::modern().name);
  for (const paging::Policy p : paging::kPolicies.all()) {
    const std::string name = paging::policy_name(p);
    const std::vector<paging::PolicySpec> specs =
        bench::paging_from(options_of("--paging=" + name));
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(paging::policy_name(specs[0].policy), name);
  }

  EXPECT_THROW(bench::kernels_from(options_of("--kernels=CG,")), OptionError);
  EXPECT_THROW(bench::klass_from(options_of("--klass=Q"), "R"), OptionError);
  EXPECT_THROW(bench::page_kind_from(options_of("--pages=1GB"), "pages"),
               OptionError);
  EXPECT_THROW(bench::platform_from(options_of("--platform=Opteron 270")),
               OptionError);
  EXPECT_THROW(bench::paging_from(options_of("--paging=2mb")), OptionError);
}

// Kernels run in canonical order, once each, whatever the list's order.
TEST(BenchOptions, KernelListIsCanonicalAndDeduplicated) {
  EXPECT_EQ(bench::kernels_from(options_of("--kernels=MG,CG,MG")),
            (std::vector<npb::Kernel>{npb::Kernel::CG, npb::Kernel::MG}));
  EXPECT_EQ(bench::kernels_from(Options{}), npb::all_kernels());
}

TEST(BenchOptionsDeathTest, RemovedStrategiesAndFlagsExitTwo) {
  for (const char* arg :
       {"--strategy=analytic", "--strategy=multilane", "--strategy=recorded",
        "--no-trace", "--no-multilane", "--no-analytic",
        "--trace-store-mb=64", "--topology=2x2"}) {
    const char* argv[] = {"prog", arg};
    const Options opts(2, const_cast<char**>(argv));
    EXPECT_EXIT(bench::strategy_from(opts), ::testing::ExitedWithCode(2),
                "valid.*live, auto|was removed")
        << arg;
  }
  for (const char* name : {"live", "auto"}) {
    const std::string arg = std::string("--strategy=") + name;
    const char* argv[] = {"prog", arg.c_str()};
    const Options opts(2, const_cast<char**>(argv));
    EXPECT_EQ(exec::strategy_name(bench::strategy_from(opts)),
              std::string(name));
  }
}

}  // namespace
}  // namespace lpomp
