// NtcSystem report invariants across requirement sweeps (clock, style,
// FIT) — the top-of-stack consistency checks.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/system.hpp"

namespace ntc::core {
namespace {

class SystemClockSweep : public ::testing::TestWithParam<double> {};

TEST_P(SystemClockSweep, ReportIsInternallyConsistent) {
  SystemRequirements requirements;
  requirements.clock = Hertz{GetParam()};
  NtcSystem system(requirements);
  const SavingsReport report = system.analyze();
  ASSERT_EQ(report.schemes.size(), 3u);

  const double p0 = report.schemes[0].power.total().value;
  const double p1 = report.schemes[1].power.total().value;
  const double p2 = report.schemes[2].power.total().value;
  // Ratios and savings must be mutually consistent.
  EXPECT_NEAR(report.energy_ratio_no_mitigation_over_ocean, p0 / p2, 1e-9);
  EXPECT_NEAR(report.energy_ratio_ecc_over_ocean, p1 / p2, 1e-9);
  EXPECT_NEAR(report.ocean_saving_vs_no_mitigation, 1.0 - p2 / p0, 1e-9);
  EXPECT_NEAR(report.ocean_saving_vs_ecc, 1.0 - p2 / p1, 1e-9);
  EXPECT_NEAR(report.ecc_saving_vs_no_mitigation, 1.0 - p1 / p0, 1e-9);
  // Voltages ordered with the schemes' strength.
  EXPECT_GE(report.schemes[0].operating_point.voltage.value,
            report.schemes[1].operating_point.voltage.value);
  EXPECT_GE(report.schemes[1].operating_point.voltage.value,
            report.schemes[2].operating_point.voltage.value);
  // Headline ratio consistent with the voltages it is defined over.
  const double v_ef = report.schemes[0].operating_point.voltage.value + 0.05;
  const double v_oc = report.schemes[2].operating_point.voltage.value;
  EXPECT_NEAR(report.headline_dynamic_power_ratio, (v_ef * v_ef) / (v_oc * v_oc),
              1e-9);
}

TEST_P(SystemClockSweep, PowerBreakdownPositive) {
  SystemRequirements requirements;
  requirements.clock = Hertz{GetParam()};
  NtcSystem system(requirements);
  for (const SchemeEstimate& e : system.analyze().schemes) {
    EXPECT_GT(e.power.core.value, 0.0) << e.scheme.name;
    EXPECT_GT(e.power.imem.value, 0.0) << e.scheme.name;
    EXPECT_GT(e.power.spm.value, 0.0) << e.scheme.name;
    if (e.scheme.kind == mitigation::SchemeKind::Ocean)
      EXPECT_GT(e.power.pm.value, 0.0);
    else
      EXPECT_DOUBLE_EQ(e.power.pm.value, 0.0);
    if (e.scheme.kind == mitigation::SchemeKind::NoMitigation)
      EXPECT_DOUBLE_EQ(e.power.codec.value, 0.0);
    else
      EXPECT_GT(e.power.codec.value, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, SystemClockSweep,
                         ::testing::Values(100e3, 290e3, 1.96e6, 5e6),
                         [](const auto& info) {
                           char name[32];
                           std::snprintf(name, sizeof name, "f%dkHz",
                                         static_cast<int>(info.param / 1e3));
                           return std::string(name);
                         });

TEST(NtcSystem, SavingsShrinkAtHigherClocks) {
  // The paper: savings are 70% at 290 kHz but only 37% at 1.96 MHz —
  // the frequency constraint closes the voltage gap.
  SystemRequirements slow_req, fast_req;
  slow_req.clock = kilohertz(290.0);
  fast_req.clock = megahertz(1.96);
  const auto slow = NtcSystem(slow_req).analyze();
  const auto fast = NtcSystem(fast_req).analyze();
  EXPECT_GT(slow.ocean_saving_vs_no_mitigation,
            fast.ocean_saving_vs_no_mitigation);
  // At 1.96 MHz OCEAN and ECC share 0.44 V: only the protocol/codec
  // overhead separates them (paper: "7% increased power savings ...
  // when the supply voltage is similar" — ours differ by the OCEAN
  // checkpoint overhead, so OCEAN may even cost slightly more).
  EXPECT_NEAR(fast.schemes[1].operating_point.voltage.value,
              fast.schemes[2].operating_point.voltage.value, 1e-9);
}

TEST(NtcSystem, CommercialStyleNeedsHigherVoltages) {
  SystemRequirements cell_req, cots_req;
  cots_req.memory_style = energy::MemoryStyle::CommercialMacro40;
  const auto cell = NtcSystem(cell_req).analyze();
  const auto cots = NtcSystem(cots_req).analyze();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(cots.schemes[i].operating_point.voltage.value,
              cell.schemes[i].operating_point.voltage.value)
        << cell.schemes[i].scheme.name;
  }
}

TEST(NtcSystem, TighterFitBudgetNeverLowersVoltages) {
  SystemRequirements loose_req, tight_req;
  loose_req.fit_per_transaction = 1e-12;
  tight_req.fit_per_transaction = 1e-18;
  const auto loose = NtcSystem(loose_req).analyze();
  const auto tight = NtcSystem(tight_req).analyze();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(loose.schemes[i].operating_point.voltage.value,
              tight.schemes[i].operating_point.voltage.value + 1e-12);
  }
}

}  // namespace
}  // namespace ntc::core
