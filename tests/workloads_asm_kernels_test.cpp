// Integration: real software on the simulated SoC, across voltages and
// mitigation schemes — the CPU, assembler, bus, ECC wrapper and fault
// models working together.
#include "workloads/asm_kernels.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/assembler.hpp"
#include "sim/platform.hpp"

namespace ntc::workloads::kernels {
namespace {

std::uint32_t run_kernel(const std::string& source, double vdd,
                         mitigation::SchemeKind scheme =
                             mitigation::SchemeKind::Secded,
                         bool inject = true, std::uint64_t seed = 5,
                         sim::CpuHaltReason* reason_out = nullptr) {
  sim::PlatformConfig config;
  config.scheme = scheme;
  config.vdd = Volt{vdd};
  config.seed = seed;
  config.inject_faults = inject;
  sim::Platform platform(config);
  const sim::AssemblyResult assembled = sim::assemble(source);
  EXPECT_TRUE(assembled.ok) << assembled.error;
  platform.load_program(assembled.words);
  const sim::CpuHaltReason reason = platform.cpu().run(5'000'000);
  if (reason_out) *reason_out = reason;
  EXPECT_EQ(reason, sim::CpuHaltReason::Ecall);
  return platform.cpu().reg(10);
}

TEST(AsmKernels, DotProductMatchesClosedForm) {
  EXPECT_EQ(run_kernel(dot_product(64), 1.1, mitigation::SchemeKind::Secded,
                       false),
            dot_product_expected(64));
  EXPECT_EQ(dot_product_expected(64), 170688u);
}

TEST(AsmKernels, MemcpyVerifiesCleanOnHealthyMemory) {
  EXPECT_EQ(run_kernel(memcpy_check(128, 0xBEEF), 1.1,
                       mitigation::SchemeKind::NoMitigation, false),
            0u);
}

TEST(AsmKernels, FibonacciAcrossRange) {
  for (std::uint32_t n : {0u, 1u, 2u, 10u, 30u, 47u}) {
    EXPECT_EQ(run_kernel(fibonacci(n), 1.1, mitigation::SchemeKind::Secded,
                         false),
              fibonacci_expected(n))
        << "n=" << n;
  }
  EXPECT_EQ(fibonacci_expected(10), 55u);
}

TEST(AsmKernels, BubbleSortLeavesNoInversions) {
  EXPECT_EQ(run_kernel(bubble_sort_check(32, 0xC0FFEE), 1.1,
                       mitigation::SchemeKind::Secded, false),
            0u);
}

TEST(AsmKernels, ChecksumMatchesReference) {
  EXPECT_EQ(run_kernel(checksum(200), 1.1, mitigation::SchemeKind::Secded,
                       false),
            checksum_expected(200));
}

class KernelsAtOperatingPoints
    : public ::testing::TestWithParam<double> {};

TEST_P(KernelsAtOperatingPoints, SecdedKeepsSoftwareExactAtTable2Voltages) {
  // At the ECC ladder points the protected platform must compute exact
  // results despite injected faults.
  const double vdd = GetParam();
  EXPECT_EQ(run_kernel(dot_product(64), vdd), dot_product_expected(64));
  EXPECT_EQ(run_kernel(checksum(100), vdd), checksum_expected(100));
  EXPECT_EQ(run_kernel(bubble_sort_check(24, 7), vdd), 0u);
}

INSTANTIATE_TEST_SUITE_P(Table2Points, KernelsAtOperatingPoints,
                         ::testing::Values(0.55, 0.44),
                         [](const auto& info) {
                           char name[16];
                           std::snprintf(name, sizeof name, "V%d",
                                         static_cast<int>(info.param * 100));
                           return std::string(name);
                         });

TEST(AsmKernels, DeepVoltageCorruptsUnprotectedSoftware) {
  // Property: far below the access limit, the bare platform either
  // faults or computes wrong results for at least one seed.
  int anomalies = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::PlatformConfig config;
    config.scheme = mitigation::SchemeKind::NoMitigation;
    config.vdd = Volt{0.30};
    config.seed = seed;
    sim::Platform platform(config);
    const auto assembled = sim::assemble(checksum(200));
    ASSERT_TRUE(assembled.ok);
    platform.load_program(assembled.words);
    const auto reason = platform.cpu().run(5'000'000);
    if (reason != sim::CpuHaltReason::Ecall ||
        platform.cpu().reg(10) != checksum_expected(200))
      ++anomalies;
  }
  EXPECT_GT(anomalies, 0);
}

TEST(AsmKernels, EccFixupsAreObservedUnderStress) {
  sim::PlatformConfig config;
  config.scheme = mitigation::SchemeKind::Secded;
  config.vdd = Volt{0.40};  // p_bit ~ 4e-6: upsets happen, ECC corrects
  config.seed = 11;
  sim::Platform platform(config);
  const auto assembled = sim::assemble(checksum(400));
  ASSERT_TRUE(assembled.ok);
  platform.load_program(assembled.words);
  std::uint64_t total_corrections = 0;
  for (int run = 0; run < 30; ++run) {
    platform.cpu().reset(0);
    const auto reason = platform.cpu().run(5'000'000);
    ASSERT_EQ(reason, sim::CpuHaltReason::Ecall);
    EXPECT_EQ(platform.cpu().reg(10), checksum_expected(400));
    total_corrections += platform.cpu().stats().corrected_accesses;
  }
  EXPECT_GT(total_corrections, 0u);
}

}  // namespace
}  // namespace ntc::workloads::kernels
