// Parameterised sweeps over the mitigation stack: FIT targets,
// frequencies, schemes and retention presets — the monotonicity and
// consistency properties the Table-2 solver rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/math.hpp"
#include "mitigation/comparison.hpp"
#include "mitigation/voltage_solver.hpp"

namespace ntc::mitigation {
namespace {

class FitSweep : public ::testing::TestWithParam<double> {};

TEST_P(FitSweep, ChosenVoltageIsMinimalOnTheGrid) {
  const double fit = GetParam();
  auto solver = cell_based_platform_solver();
  SolverConstraints constraints;
  constraints.fit_per_transaction = fit;
  for (const auto& scheme :
       {no_mitigation(), secded_scheme(), ocean_scheme()}) {
    const OperatingPoint point = solver.solve(scheme, constraints);
    // Meets the target...
    EXPECT_LE(point.word_failure, fit * 1.0001) << scheme.name;
    // ...and one grid step lower would not (when reliability-bound and
    // not already at the sweep floor).
    if (point.reliability_bound && point.voltage.value > 0.05) {
      const double v_below = point.voltage.value - 0.01;
      const double p_below = solver.p_bit(Volt{v_below});
      EXPECT_GT(word_failure_probability(scheme, p_below), fit)
          << scheme.name << " fit=" << fit;
    }
  }
}

TEST_P(FitSweep, SchemeOrderingIsPreserved) {
  auto solver = cell_based_platform_solver();
  SolverConstraints constraints;
  constraints.fit_per_transaction = GetParam();
  const double v0 = solver.solve(no_mitigation(), constraints).voltage.value;
  const double v1 = solver.solve(secded_scheme(), constraints).voltage.value;
  const double v2 = solver.solve(ocean_scheme(), constraints).voltage.value;
  EXPECT_GE(v0, v1);
  EXPECT_GE(v1, v2);
}

INSTANTIATE_TEST_SUITE_P(Targets, FitSweep,
                         ::testing::Values(1e-9, 1e-12, 1e-15, 1e-18, 1e-21),
                         [](const auto& info) {
                           return "fit1e" + std::to_string(static_cast<int>(
                                                -std::log10(info.param)));
                         });

class FrequencySweep : public ::testing::TestWithParam<double> {};

TEST_P(FrequencySweep, VoltageMonotonicInFrequency) {
  auto solver = cell_based_platform_solver();
  SolverConstraints lo_c, hi_c;
  lo_c.min_frequency = Hertz{GetParam()};
  hi_c.min_frequency = Hertz{GetParam() * 4.0};
  for (const auto& scheme : {secded_scheme(), ocean_scheme()}) {
    const double v_lo = solver.solve(scheme, lo_c).voltage.value;
    const double v_hi = solver.solve(scheme, hi_c).voltage.value;
    EXPECT_LE(v_lo, v_hi + 1e-12) << scheme.name << " f=" << GetParam();
  }
}

TEST_P(FrequencySweep, ChosenVoltageSustainsTheClock) {
  auto timing = tech::platform_logic_timing_40nm();
  auto solver = cell_based_platform_solver();
  SolverConstraints constraints;
  constraints.min_frequency = Hertz{GetParam()};
  for (const auto& scheme :
       {no_mitigation(), secded_scheme(), ocean_scheme()}) {
    const OperatingPoint point = solver.solve(scheme, constraints);
    EXPECT_GE(timing.fmax(point.voltage).value, GetParam() * 0.999)
        << scheme.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, FrequencySweep,
                         ::testing::Values(50e3, 290e3, 1.0e6, 1.96e6, 8e6),
                         [](const auto& info) {
                           char name[32];
                           std::snprintf(name, sizeof name, "f%dkHz",
                                         static_cast<int>(info.param / 1e3));
                           return std::string(name);
                         });

TEST(WordFailureSweep, MonotonicInPbitAndThreshold) {
  // Failure probability grows with p and shrinks with the threshold.
  for (const auto& scheme : {no_mitigation(), secded_scheme(), ocean_scheme()}) {
    double prev = -1.0;
    for (double p : logspace(1e-9, 1e-2, 8)) {
      const double wf = word_failure_probability(scheme, p);
      EXPECT_GE(wf, prev) << scheme.name << " p=" << p;
      prev = wf;
    }
  }
  for (double p : {1e-6, 1e-4, 1e-2}) {
    EXPECT_GT(word_failure_probability(no_mitigation(), p),
              word_failure_probability(secded_scheme(), p));
    EXPECT_GT(word_failure_probability(secded_scheme(), p),
              word_failure_probability(ocean_scheme(), p));
  }
}

TEST(WordFailureSweep, DominantTermScalingLaw) {
  // For tiny p the tail behaves like C(n,k) p^k: decade steps in p give
  // k-decade steps in the failure probability.
  for (const auto& scheme : {secded_scheme(), ocean_scheme()}) {
    const double k = scheme.failure_threshold;
    const double w1 = word_failure_probability(scheme, 1e-7);
    const double w2 = word_failure_probability(scheme, 1e-6);
    EXPECT_NEAR(std::log10(w2 / w1), k, 0.01) << scheme.name;
  }
}

TEST(RetentionWeightSweep, DeratingNeverRaisesTheVoltage) {
  auto solver = cell_based_platform_solver();
  double prev = 2.0;
  for (double weight : {1.0, 0.5, 0.1, 0.0}) {
    SolverConstraints constraints;
    constraints.retention_weight = weight;
    const double v = solver.solve(ocean_scheme(), constraints).voltage.value;
    EXPECT_LE(v, prev + 1e-12) << "weight=" << weight;
    prev = v;
  }
}

}  // namespace
}  // namespace ntc::mitigation
