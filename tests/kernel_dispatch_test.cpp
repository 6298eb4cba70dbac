// Kernel path selection: the default is a pure function of the CPU, the
// one test seam (ScopedTier) restores it, and the kernels.tier gauge
// records the path that runs.
#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/metrics.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats::kernels {
namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// The kernels.tier gauge of the global registry (-1 when absent).
double tier_gauge() {
  for (const auto& [name, value] :
       obs::MetricsRegistry::global().snapshot().gauges) {
    if (name == "kernels.tier") return value;
  }
  return -1.0;
}

TEST(KernelDispatch, DefaultIsBestSupportedStrict) {
  // AVX2 exactly when the CPU has it, scalar otherwise (and off x86).
  // Either path is byte-identical to the scalar reference.
  const Tier want = cpu_has_avx2() ? Tier::kAvx2 : Tier::kScalar;
  EXPECT_EQ(cpu_tier(), want);
  EXPECT_EQ(active(), want);
  // The gauge records the path even when metrics are switched on (and
  // reset) after it resolved.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  metrics.reset();
  EXPECT_EQ(active(), want);
  EXPECT_EQ(tier_gauge(), static_cast<double>(want));
  metrics.set_enabled(false);
}

TEST(KernelDispatch, ScopedTierRestoresTheDefault) {
  const Tier before = active();
  {
    const ScopedTier scalar(Tier::kScalar);
    EXPECT_EQ(active(), Tier::kScalar);
    if (cpu_tier() == Tier::kAvx2) {
      const ScopedTier avx2(Tier::kAvx2);
      EXPECT_EQ(active(), Tier::kAvx2);
    }
    EXPECT_EQ(active(), Tier::kScalar);
  }
  EXPECT_EQ(active(), before);
  if (cpu_tier() != Tier::kAvx2) {
    // A CPU without AVX2 cannot be switched onto it.
    EXPECT_THROW(ScopedTier{Tier::kAvx2}, CheckError);
    EXPECT_EQ(active(), before);
  }
}

}  // namespace
}  // namespace cloudlens::stats::kernels
