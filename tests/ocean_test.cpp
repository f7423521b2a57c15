#include <gtest/gtest.h>

#include <cmath>

#include "ecc/crc.hpp"
#include "ocean/optimizer.hpp"
#include "ocean/runtime.hpp"
#include "workloads/fft.hpp"
#include "workloads/golden.hpp"

namespace ntc::ocean {
namespace {

std::vector<std::complex<double>> test_signal(std::size_t n) {
  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.35 * std::sin(2.0 * M_PI * 11.0 * static_cast<double>(i) / n);
  return x;
}

sim::Platform ocean_platform(double vdd, std::uint64_t seed = 1,
                             bool inject = true) {
  sim::PlatformConfig config;
  config.scheme = mitigation::SchemeKind::Ocean;
  config.vdd = Volt{vdd};
  config.pm_bytes = 8 * 1024;  // two slots, each fits the FFT working set
  config.seed = seed;
  config.inject_faults = inject;
  return sim::Platform(config);
}

TEST(ProtectedBuffer, SaveCommitRestoreRoundTrip) {
  sim::Platform platform = ocean_platform(1.1, 1, false);
  ProtectedBuffer buffer(*platform.pm());
  for (std::uint32_t i = 0; i < 64; ++i)
    platform.spm().write_word(i, i * 31 + 7);
  workloads::ChunkRef chunk{0, 64};
  auto saved = buffer.save_with_crc(platform.spm(), chunk);
  EXPECT_TRUE(saved.clean());
  buffer.commit();
  // Trash the scratchpad.
  for (std::uint32_t i = 0; i < 64; ++i) platform.spm().write_word(i, 0);
  RestoreResult restored = buffer.restore(platform.spm(), chunk);
  EXPECT_TRUE(restored.ok());
  EXPECT_EQ(restored.words_restored, 64u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::uint32_t v = 0;
    platform.spm().read_word(i, v);
    EXPECT_EQ(v, i * 31 + 7);
  }
}

TEST(ProtectedBuffer, PingPongPreservesPreviousCheckpoint) {
  // Saving a new (possibly corrupt) checkpoint into the idle slot must
  // not destroy the committed one until commit() is called.
  sim::Platform platform = ocean_platform(1.1, 1, false);
  ProtectedBuffer buffer(*platform.pm());
  workloads::ChunkRef chunk{0, 16};
  for (std::uint32_t i = 0; i < 16; ++i) platform.spm().write_word(i, 100 + i);
  buffer.save_with_crc(platform.spm(), chunk);
  buffer.commit();
  // New data saved but NOT committed.
  for (std::uint32_t i = 0; i < 16; ++i) platform.spm().write_word(i, 900 + i);
  buffer.save_with_crc(platform.spm(), chunk);
  // Restore must yield the committed (old) checkpoint.
  buffer.restore(platform.spm(), chunk);
  std::uint32_t v = 0;
  platform.spm().read_word(3, v);
  EXPECT_EQ(v, 103u);
}

TEST(ProtectedBuffer, RejectsOversizedChunkDeath) {
  sim::Platform platform = ocean_platform(1.1, 1, false);
  ProtectedBuffer buffer(*platform.pm());
  EXPECT_DEATH(buffer.save_with_crc(platform.spm(),
                                    {0, buffer.slot_capacity_words() + 1}),
               "slot capacity");
}

TEST(ProtectedBuffer, SaveWithCrcMatchesSeparateCrc) {
  sim::Platform platform = ocean_platform(1.1, 1, false);
  ProtectedBuffer buffer(*platform.pm());
  std::vector<std::uint32_t> values;
  for (std::uint32_t i = 0; i < 32; ++i) {
    platform.spm().write_word(i, i ^ 0xA5A5A5A5u);
    values.push_back(i ^ 0xA5A5A5A5u);
  }
  const auto saved = buffer.save_with_crc(platform.spm(), {0, 32});
  EXPECT_EQ(saved.crc, ecc::Crc32::compute_words(values));
  EXPECT_TRUE(saved.clean());
}

TEST(OceanRuntime, CompletesCleanRunWithoutRestores) {
  sim::Platform platform = ocean_platform(1.1, 1, false);
  workloads::FixedPointFft fft(1024);
  fft.set_input(test_signal(1024));
  OceanRuntime runtime(platform);
  OceanRunOutcome outcome = runtime.run(fft);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.system_failure);
  EXPECT_EQ(outcome.stats.restores, 0u);
  EXPECT_EQ(outcome.stats.phases_run, fft.phase_count());
  EXPECT_GT(outcome.stats.checkpoint_words, 0u);
  EXPECT_GT(outcome.stats.protocol_cycles, 0u);
}

TEST(OceanRuntime, ProtectsQualityAtStressVoltage) {
  // At 0.36 V the raw scratchpad reliably collects dozens of access
  // flips over the transform (expected corrupted words ~30, so no seed
  // escapes clean); OCEAN must deliver a much better transform than
  // the unprotected run.
  const auto reference = workloads::reference_fft(test_signal(1024));

  auto run_once = [&](bool protect) {
    sim::PlatformConfig config;
    config.scheme = protect ? mitigation::SchemeKind::Ocean
                            : mitigation::SchemeKind::NoMitigation;
    config.vdd = Volt{0.36};
    config.pm_bytes = 8 * 1024;
    config.seed = 33;
    sim::Platform platform(config);
    workloads::FixedPointFft fft(1024);
    fft.set_input(test_signal(1024));
    if (protect) {
      OceanRuntime runtime(platform);
      OceanRunOutcome outcome = runtime.run(fft);
      EXPECT_TRUE(outcome.completed);
    } else {
      run_unprotected(platform, fft);
    }
    auto measured = fft.read_output(platform.spm());
    for (auto& v : measured) v /= fft.output_scale();
    return workloads::snr_db(measured, reference);
  };

  const double snr_ocean = run_once(true);
  const double snr_raw = run_once(false);
  EXPECT_GT(snr_ocean, snr_raw + 3.0);  // clear protection gain
}

TEST(OceanRuntime, RestoresFireUnderInjectedStress) {
  // 0.27 V: deep in the retention-failure region, so the SPM carries
  // stuck multi-bit words that SECDED can only detect — the rollback
  // machinery must engage.
  sim::Platform platform = ocean_platform(0.27, 7);
  workloads::FixedPointFft fft(1024);
  fft.set_input(test_signal(1024));
  OceanRuntime runtime(platform);
  OceanRunOutcome outcome = runtime.run(fft);
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.stats.crc_mismatches + outcome.stats.reexecutions, 0u);
  EXPECT_GT(outcome.stats.restores, 0u);
}

TEST(ProtectedBuffer, QuintupleErrorsInThePmAreTheFailureMode) {
  // Save a checkpoint cleanly, then collapse the PM rail so its cells
  // lose state: restores must report uncorrectable words (the paper's
  // "quintuple (5 bits) error is needed for system failure" condition).
  sim::Platform platform = ocean_platform(1.1, 3, true);
  ProtectedBuffer buffer(*platform.pm());
  for (std::uint32_t i = 0; i < 256; ++i)
    platform.spm().write_word(i, i * 77u);
  workloads::ChunkRef chunk{0, 256};
  ASSERT_TRUE(buffer.save_with_crc(platform.spm(), chunk).clean());
  buffer.commit();
  platform.pm()->array().set_vdd(Volt{0.12});  // deep retention collapse
  const RestoreResult restored = buffer.restore(platform.spm(), chunk);
  EXPECT_FALSE(restored.ok());
  EXPECT_GT(restored.uncorrectable_words, 0u);
}

TEST(OceanRuntime, ReportsSystemFailureWhenThePmDies) {
  // Run with the whole platform (incl. PM) collapsed far below every
  // retention limit: restores from the dead PM must flag the OCEAN
  // system-failure condition.
  sim::Platform platform = ocean_platform(0.18, 9);
  workloads::FixedPointFft fft(1024);
  fft.set_input(test_signal(1024));
  OceanRuntime runtime(platform);
  const OceanRunOutcome outcome = runtime.run(fft);
  EXPECT_TRUE(outcome.completed);  // best-effort completion
  EXPECT_TRUE(outcome.system_failure);
  EXPECT_GT(outcome.stats.restore_uncorrectable_words, 0u);
}

TEST(EpaOptimizer, EvaluateChargesProtocolOverhead) {
  EpaOptimizer optimizer(energy::MemoryStyle::CellBasedImec40);
  TaskProfile profile{100000, 1024, 40000};
  OceanPlan one = optimizer.evaluate(profile, Volt{0.44}, 1, Second{1.0});
  OceanPlan many = optimizer.evaluate(profile, Volt{0.44}, 16, Second{1.0});
  ASSERT_TRUE(one.feasible && many.feasible);
  EXPECT_GT(many.protocol_overhead, one.protocol_overhead);
  EXPECT_GT(many.energy.value, one.energy.value);  // same V: overhead costs
}

TEST(EpaOptimizer, EvaluateRejectsUnreachableClock) {
  EpaOptimizer optimizer(energy::MemoryStyle::CellBasedImec40);
  TaskProfile profile{100000, 1024, 40000};
  OceanPlan plan = optimizer.evaluate(profile, Volt{0.33}, 1, Second{1e-4});
  EXPECT_FALSE(plan.feasible);
}

TEST(EpaOptimizer, PicksFitFloorWhenDeadlineIsLoose) {
  EpaOptimizer optimizer(energy::MemoryStyle::CellBasedImec40);
  TaskProfile profile{100000, 1024, 40000};
  OceanPlan plan = optimizer.optimize(profile, Second{10.0});
  ASSERT_TRUE(plan.feasible);
  // With a loose deadline the optimiser should sit at/near the OCEAN
  // reliability floor (0.33 V on the cell-based ladder).
  EXPECT_NEAR(plan.vdd.value, 0.33, 0.021);
}

TEST(EpaOptimizer, TightDeadlineForcesHigherVoltage) {
  EpaOptimizer optimizer(energy::MemoryStyle::CellBasedImec40);
  TaskProfile profile{100000, 1024, 40000};
  OceanPlan loose = optimizer.optimize(profile, Second{10.0});
  OceanPlan tight = optimizer.optimize(profile, Second{0.02});
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_GT(tight.vdd.value, loose.vdd.value);
  EXPECT_LE(tight.duration.value, 0.02);
}

TEST(EpaOptimizer, InfeasibleDeadlineReported) {
  EpaOptimizer optimizer(energy::MemoryStyle::CellBasedImec40);
  TaskProfile profile{100000000, 1024, 40000000};
  OceanPlan plan = optimizer.optimize(profile, Second{1e-6});
  EXPECT_FALSE(plan.feasible);
}

}  // namespace
}  // namespace ntc::ocean
