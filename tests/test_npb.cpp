// Tests for the NPB kernels: verification at class S, metadata, and the
// central reproducibility property — numerics must be bitwise independent
// of thread count, page size and platform.
#include <gtest/gtest.h>

#include <cmath>

#include "npb/npb.hpp"

namespace lpomp::npb {
namespace {

core::RuntimeConfig config_for(unsigned threads, PageKind kind,
                               bool xeon = false) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;
  cfg.sim = core::SimConfig{xeon ? sim::ProcessorSpec::xeon_ht()
                                 : sim::ProcessorSpec::opteron270(),
                          sim::CostModel{}, 0x5eedULL};
  return cfg;
}

// --- per-kernel verification at class S ------------------------------------

class KernelVerification : public ::testing::TestWithParam<Kernel> {};

TEST_P(KernelVerification, ClassSVerifies) {
  const NpbResult r =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k));
  EXPECT_TRUE(r.verified) << r.verification_detail;
  EXPECT_GT(r.simulated_seconds, 0.0);
  EXPECT_GT(r.profile.count(prof::ProfileReport::kAccesses), 0u);
}

TEST_P(KernelVerification, ClassSVerifiesWithHugePages) {
  const NpbResult r =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::large2m));
  EXPECT_TRUE(r.verified) << r.verification_detail;
  EXPECT_EQ(r.profile.count(prof::ProfileReport::kDtlbWalk4k), 0u)
      << "a 2MB-page run must not touch 4KB data pages";
}

TEST_P(KernelVerification, ClassSVerifiesOnXeon) {
  const NpbResult r = run_kernel(GetParam(), Klass::S,
                                 config_for(8, PageKind::small4k, true));
  EXPECT_TRUE(r.verified) << r.verification_detail;
}

TEST_P(KernelVerification, RunsWithoutSimulation) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 2;
  const NpbResult r = run_kernel(GetParam(), Klass::S, cfg);
  EXPECT_TRUE(r.verified) << r.verification_detail;
  EXPECT_EQ(r.simulated_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerification,
                         ::testing::ValuesIn(all_kernels()),
                         [](const auto& info) {
                           return std::string(kernel_name(info.param));
                         });

// --- reproducibility properties ---------------------------------------------

class KernelDeterminism : public ::testing::TestWithParam<Kernel> {};

TEST_P(KernelDeterminism, ChecksumIndependentOfThreadCount) {
  const double c1 =
      run_kernel(GetParam(), Klass::S, config_for(1, PageKind::small4k))
          .checksum;
  const double c2 =
      run_kernel(GetParam(), Klass::S, config_for(2, PageKind::small4k))
          .checksum;
  const double c4 =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k))
          .checksum;
  // Reductions combine per-thread partials in tid order, so partitioning
  // changes floating-point rounding; results must agree to ~1 ulp-scale
  // tolerance but cannot be bitwise identical across thread counts.
  EXPECT_NEAR(c1, c2, 1e-9 * std::abs(c1));
  EXPECT_NEAR(c2, c4, 1e-9 * std::abs(c1));
}

TEST_P(KernelDeterminism, ChecksumIndependentOfPageSize) {
  const double small =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k))
          .checksum;
  const double large =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::large2m))
          .checksum;
  EXPECT_EQ(small, large)
      << "page size is a performance knob; it must never change results";
}

TEST_P(KernelDeterminism, ChecksumIndependentOfPlatform) {
  const double opteron =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k))
          .checksum;
  const double xeon =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k, true))
          .checksum;
  EXPECT_EQ(opteron, xeon);
}

TEST_P(KernelDeterminism, SimulatedTimeIsReproducible) {
  const double t1 =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k))
          .simulated_seconds;
  const double t2 =
      run_kernel(GetParam(), Klass::S, config_for(4, PageKind::small4k))
          .simulated_seconds;
  EXPECT_EQ(t1, t2) << "simulation must be bit-deterministic";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelDeterminism,
                         ::testing::ValuesIn(all_kernels()),
                         [](const auto& info) {
                           return std::string(kernel_name(info.param));
                         });

// --- metadata ---------------------------------------------------------------

TEST(NpbMeta, KernelNamesAndOrder) {
  const auto kernels = all_kernels();
  ASSERT_EQ(kernels.size(), 8u);
  EXPECT_STREQ(kernel_name(kernels[0]), "BT");  // Table 2 order
  EXPECT_STREQ(kernel_name(kernels[1]), "CG");
  EXPECT_STREQ(kernel_name(kernels[2]), "FT");
  EXPECT_STREQ(kernel_name(kernels[3]), "SP");
  EXPECT_STREQ(kernel_name(kernels[4]), "MG");
  // The irregular-workload suite rides behind the paper's five.
  EXPECT_STREQ(kernel_name(kernels[5]), "GUPS");
  EXPECT_STREQ(kernel_name(kernels[6]), "GT");
  EXPECT_STREQ(kernel_name(kernels[7]), "PC");
}

TEST(NpbMeta, FootprintsGrowWithClass) {
  for (Kernel k : all_kernels()) {
    EXPECT_LT(data_footprint_bytes(k, Klass::S), data_footprint_bytes(k, Klass::W));
    EXPECT_LT(data_footprint_bytes(k, Klass::W), data_footprint_bytes(k, Klass::A));
    EXPECT_LT(data_footprint_bytes(k, Klass::A), data_footprint_bytes(k, Klass::B));
  }
}

TEST(NpbMeta, ClassBFootprintsInPaperBallpark) {
  // Table 2 (allowing for the paper's ~2x shared-image double-count; see
  // EXPERIMENTS.md): our class-B static allocations must sit within a
  // factor of ~2.5 of the paper's reported values.
  const std::pair<Kernel, std::uint64_t> paper[] = {
      {Kernel::BT, MiB(371)},
      {Kernel::CG, MiB(725)},
      {Kernel::FT, static_cast<std::uint64_t>(2.4 * 1024) * MiB(1)},
      {Kernel::SP, MiB(387)},
      {Kernel::MG, MiB(884)},
  };
  for (const auto& [kernel, reported] : paper) {
    const std::uint64_t ours = data_footprint_bytes(kernel, Klass::B);
    EXPECT_GT(ours, reported / 3) << kernel_name(kernel);
    EXPECT_LT(ours, reported * 2) << kernel_name(kernel);
  }
}

TEST(NpbMeta, BinariesMatchTable2InstructionColumn) {
  EXPECT_EQ(binary_bytes(Kernel::BT), static_cast<std::uint64_t>(1.6 * MiB(1)));
  EXPECT_EQ(binary_bytes(Kernel::CG), static_cast<std::uint64_t>(1.4 * MiB(1)));
  EXPECT_EQ(binary_bytes(Kernel::SP), static_cast<std::uint64_t>(1.6 * MiB(1)));
  for (Kernel k : all_kernels()) {
    // All "slightly less than 2MB" — a binary fits one huge page (§4.3).
    EXPECT_LT(binary_bytes(k), kLargePageSize);
    EXPECT_GT(binary_bytes(k), MiB(1));
  }
}

TEST(NpbMeta, InventoryNonEmptyAndSummed) {
  for (Kernel k : all_kernels()) {
    const auto inv = array_inventory(k, Klass::S);
    // The NPB five carry the Omni common-block split (>= 3 arrays); the
    // irregular kernels are honestly single-table (GUPS, PC) or CSR (GT).
    const std::size_t floor =
        (k == Kernel::GUPS || k == Kernel::PC) ? 1u : 3u;
    EXPECT_GE(inv.size(), floor);
    std::uint64_t sum = 0;
    for (const auto& a : inv) {
      EXPECT_FALSE(a.name.empty());
      EXPECT_GT(a.bytes, 0u);
      sum += a.bytes;
    }
    EXPECT_EQ(sum, data_footprint_bytes(k, Klass::S));
    EXPECT_LT(sum, pool_bytes_for(k, Klass::S));
  }
}

TEST(NpbMeta, CodeModelMakesMgNoisiest) {
  // Figure 3: MG has by far the highest ITLB miss rate.
  for (Kernel k : all_kernels()) {
    if (k == Kernel::MG) continue;
    EXPECT_LT(code_model(Kernel::MG).jump_period, code_model(k).jump_period);
  }
}

}  // namespace
}  // namespace lpomp::npb
