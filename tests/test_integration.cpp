// Integration tests: the paper's qualitative claims must hold end-to-end
// when kernels run through the full stack (runtime → allocator → simulated
// machine). Uses class W so the working sets exercise the TLBs.
#include <gtest/gtest.h>

#include "npb/npb.hpp"

namespace lpomp::npb {
namespace {

core::RuntimeConfig cfg(unsigned threads, PageKind kind, bool xeon = false) {
  core::RuntimeConfig c;
  c.num_threads = threads;
  c.page_kind = kind;
  c.sim = core::SimConfig{xeon ? sim::ProcessorSpec::xeon_ht()
                               : sim::ProcessorSpec::opteron270(),
                        sim::CostModel{}, 0x5eedULL};
  return c;
}

TEST(Integration, HugePagesReduceCgDtlbMissesDramatically) {
  // Figure 5's headline: CG's DTLB misses drop by ≥10x with 2MB pages.
  const NpbResult r4k = run_kernel(Kernel::CG, Klass::W,
                                   cfg(4, PageKind::small4k));
  const NpbResult r2m = run_kernel(Kernel::CG, Klass::W,
                                   cfg(4, PageKind::large2m));
  ASSERT_TRUE(r4k.verified && r2m.verified);
  const auto m4k = r4k.profile.count(prof::ProfileReport::kDtlbWalk);
  const auto m2m = r2m.profile.count(prof::ProfileReport::kDtlbWalk);
  EXPECT_GT(m4k, 10 * std::max<count_t>(m2m, 1));
}

TEST(Integration, HugePagesSpeedUpCg) {
  // Figure 4's headline: CG improves with 2MB pages on the Opteron.
  const double t4k =
      run_kernel(Kernel::CG, Klass::W, cfg(4, PageKind::small4k))
          .simulated_seconds;
  const double t2m =
      run_kernel(Kernel::CG, Klass::W, cfg(4, PageKind::large2m))
          .simulated_seconds;
  EXPECT_LT(t2m, t4k);
  EXPECT_GT((t4k - t2m) / t4k, 0.05);  // a real effect, not noise
}

TEST(Integration, OpteronScalesOneToFour) {
  double prev = 0.0;
  for (unsigned threads : {1u, 2u, 4u}) {
    const double t =
        run_kernel(Kernel::CG, Klass::W, cfg(threads, PageKind::small4k))
            .simulated_seconds;
    if (prev > 0.0) {
      EXPECT_LT(t, prev) << "adding cores must help at class W";
      EXPECT_GT(t, prev / 2.2) << "super-linear speedup would be a bug";
    }
    prev = t;
  }
}

TEST(Integration, XeonDoesNotScaleFourToEight) {
  // §4.4: "because of the pipeline flush implementation of SMT on the
  // Intel Xeons, the applications scale poorly when going from four to
  // eight threads."
  const double t4 =
      run_kernel(Kernel::CG, Klass::W, cfg(4, PageKind::small4k, true))
          .simulated_seconds;
  const double t8 =
      run_kernel(Kernel::CG, Klass::W, cfg(8, PageKind::small4k, true))
          .simulated_seconds;
  EXPECT_GT(t8, 0.9 * t4);
}

TEST(Integration, ItlbMissesAreNegligible) {
  // Figure 3's conclusion, as a hard bound: ITLB-miss cycles are below
  // 0.5% of total cycles for every kernel.
  for (Kernel k : all_kernels()) {
    const NpbResult r = run_kernel(k, Klass::S, cfg(4, PageKind::small4k));
    const double miss_cycles =
        static_cast<double>(r.profile.count(prof::ProfileReport::kItlbMiss)) *
        200.0;
    const double total =
        static_cast<double>(r.profile.count(prof::ProfileReport::kCycles));
    EXPECT_LT(miss_cycles / total, 0.005) << kernel_name(k);
  }
}

TEST(Integration, AllWalksAreAccountedByKind) {
  const NpbResult r =
      run_kernel(Kernel::MG, Klass::S, cfg(2, PageKind::small4k));
  EXPECT_EQ(r.profile.count(prof::ProfileReport::kDtlbWalk),
            r.profile.count(prof::ProfileReport::kDtlbWalk4k) +
                r.profile.count(prof::ProfileReport::kDtlbWalk2m));
  // Page walks touch 3 or 4 levels each.
  const auto walks = r.profile.count(prof::ProfileReport::kDtlbWalk);
  const auto levels = r.profile.count(prof::ProfileReport::kWalkLevels);
  EXPECT_GE(levels, 3 * walks);
  EXPECT_LE(levels, 4 * walks);
}

TEST(Integration, SharedPoolLayoutIndependentOfPageSize) {
  // The allocator must produce identical relative layouts so access streams
  // (and numerics) are identical; only the page backing differs.
  for (PageKind kind : {PageKind::small4k, PageKind::large2m}) {
    const NpbResult r = run_kernel(Kernel::FT, Klass::S, cfg(2, kind));
    EXPECT_TRUE(r.verified) << page_kind_name(kind);
  }
}

TEST(Integration, ProfileAccessCountsScaleWithClass) {
  const auto s =
      run_kernel(Kernel::CG, Klass::S, cfg(2, PageKind::small4k))
          .profile.count(prof::ProfileReport::kAccesses);
  const auto w =
      run_kernel(Kernel::CG, Klass::W, cfg(2, PageKind::small4k))
          .profile.count(prof::ProfileReport::kAccesses);
  EXPECT_GT(w, 2 * s);
}

}  // namespace
}  // namespace lpomp::npb
