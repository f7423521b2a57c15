#include "reliability/model_tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "energy/memory_calculator.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/sram_module.hpp"

namespace ntc {
namespace {

TEST(RngBoundTest, NoNormalDeviateExceedsTheBound) {
  const double bound = Rng::max_normal_magnitude();
  // Analytic cap: sqrt(-2 ln 2^-53) ~ 8.5716.
  EXPECT_GT(bound, 8.57);
  EXPECT_LT(bound, 8.58);
  Rng rng(12345);
  for (int i = 0; i < 2'000'000; ++i)
    ASSERT_LE(std::abs(rng.normal()), bound);
}

TEST(RetentionVminTableTest, MatchesDirectPerCellDraw) {
  const reliability::NoiseMarginModel retention =
      reliability::cell_based_40nm_retention();
  constexpr std::size_t kCells = 4096;
  constexpr std::uint64_t kSeed = 99;

  // The eager per-cell draw the table replaces.
  std::vector<double> direct(kCells);
  Rng sigma_rng(kSeed);
  for (auto& v : direct) {
    const double sigma = static_cast<float>(sigma_rng.normal());
    v = retention.cell_retention_vmin(sigma).value;
  }

  const auto table =
      reliability::make_retention_vmin_table(retention, kSeed, kCells);
  ASSERT_EQ(table->vmin_desc.size(), kCells);
  ASSERT_EQ(table->cell_desc.size(), kCells);
  EXPECT_TRUE(std::is_sorted(table->vmin_desc.begin(), table->vmin_desc.end(),
                             std::greater<double>()));
  EXPECT_EQ(table->max_vmin, table->vmin_desc.front());

  // cell_desc is a permutation carrying the same values.
  std::vector<bool> seen(kCells, false);
  for (std::size_t i = 0; i < kCells; ++i) {
    const std::uint32_t cell = table->cell_desc[i];
    ASSERT_LT(cell, kCells);
    EXPECT_FALSE(seen[cell]);
    seen[cell] = true;
    EXPECT_EQ(table->vmin_desc[i], direct[cell]);
  }

  // failing_count agrees with the unsorted strict-> scan at supplies
  // spanning none to all failing.
  for (double vdd : {0.05, 0.2, 0.25, 0.3, 0.32, 0.36, 0.45, 1.0}) {
    const auto expected = static_cast<std::size_t>(std::count_if(
        direct.begin(), direct.end(),
        [vdd](double vmin) { return vmin > vdd; }));
    EXPECT_EQ(table->failing_count(Volt{vdd}), expected) << "vdd " << vdd;
  }
  // Exact boundary: a supply equal to a cell's vmin retains that cell
  // (the scan used strict >, the binary search must too).
  const double boundary = table->vmin_desc[kCells / 2];
  const auto at = table->failing_count(Volt{boundary});
  EXPECT_LE(at, kCells / 2);
  if (at > 0) {
    EXPECT_GT(table->vmin_desc[at - 1], boundary);
  }
}

TEST(RetentionFailingCells, MatchesEagerDraw) {
  // Every memory style's retention model, three geometries (one with an
  // odd cell count, whose last Box-Muller pair is half used), and
  // supplies from below the half-fail voltage (every pair a candidate)
  // to above the lazy-safe bound (no cell fails).
  const energy::MemoryStyle styles[] = {
      energy::MemoryStyle::CommercialMacro40,
      energy::MemoryStyle::CustomSram40, energy::MemoryStyle::CellBased65,
      energy::MemoryStyle::CellBasedImec40};
  const std::size_t geometries[] = {1024 * 32, 2048 * 39, 4097};
  const std::uint64_t seeds[] = {1, 99, 424242};
  std::size_t filtered_failures = 0;
  for (const energy::MemoryStyle style : styles) {
    const reliability::NoiseMarginModel retention =
        energy::MemoryCalculator(style, energy::MemoryGeometry{})
            .retention_model();
    const double bound = Rng::max_normal_magnitude();
    ASSERT_LT(0.1, retention.half_fail_voltage().value);
    ASSERT_GT(0.575, retention.cell_retention_vmin(-bound).value);
    for (const std::size_t cells : geometries) {
      for (const std::uint64_t seed : seeds) {
        // The eager per-cell draw.
        std::vector<double> direct(cells);
        Rng sigma_rng(seed);
        for (auto& v : direct) {
          const double sigma = static_cast<float>(sigma_rng.normal());
          v = retention.cell_retention_vmin(sigma).value;
        }
        for (int step = 0; step <= 19; ++step) {
          const double vdd = 0.1 + 0.025 * step;
          const auto got = reliability::retention_failing_cells(
              retention, seed, cells, Volt{vdd});
          std::size_t i = 0;
          for (std::size_t c = 0; c < cells; ++c) {
            if (direct[c] <= vdd) continue;
            ASSERT_LT(i, got.size()) << "vdd " << vdd << " seed " << seed;
            ASSERT_EQ(got[i].cell, c) << "vdd " << vdd << " seed " << seed;
            ASSERT_EQ(got[i].vmin, direct[c]) << "cell " << c;
            ++i;
          }
          ASSERT_EQ(got.size(), i) << "vdd " << vdd << " seed " << seed;
          if (vdd > retention.half_fail_voltage().value)
            filtered_failures += i;
        }
      }
    }
  }
  // The grid reaches failing cells above the half-fail voltage, where
  // the pair filter decides what is drawn.
  EXPECT_GT(filtered_failures, 1000u);
}

TEST(ModelTableCacheTest, SharesTablesPerKeyAndMemoisesAccessCurve) {
  reliability::ModelTableCache cache;
  const reliability::AccessErrorModel access =
      reliability::cell_based_40nm_access();
  const double p = cache.p_access(access, Volt{0.4});
  EXPECT_EQ(p, access.p_bit_err(Volt{0.4}));
  EXPECT_EQ(cache.p_access(access, Volt{0.4}), p);
  EXPECT_EQ(cache.access_points(), 1u);  // same key -> one shared point
  cache.p_access(access, Volt{0.45});
  EXPECT_EQ(cache.access_points(), 2u);
  const reliability::AccessErrorModel other =
      reliability::commercial_40nm_access();
  EXPECT_EQ(cache.p_access(other, Volt{0.4}), other.p_bit_err(Volt{0.4}));
  EXPECT_EQ(cache.access_points(), 3u);  // the model is part of the key

  // A deep retention draw through the cache keeps no table.
  auto tables = std::make_shared<reliability::ModelTableCache>();
  sim::SramModule deep(
      "t", 256, 39, access, reliability::cell_based_40nm_retention(),
      Volt{0.26}, Rng(3), /*inject_faults=*/true, tables);
  EXPECT_GT(deep.stats().stuck_bits, 0u);
  EXPECT_EQ(tables->vmin_tables(), 0u);
  EXPECT_EQ(tables->access_points(), 1u);
}

constexpr std::uint32_t kWords = 256;
constexpr std::uint32_t kBits = 39;
/// Supplies that drop (re-running the failing-cell pass), rise (filtering
/// its list), clear the lazy-safe bound and fall below the half-fail
/// voltage.
constexpr double kSweep[] = {0.26, 0.24, 0.30, 0.45, 0.20, 0.33};

sim::SramModule make_module(std::uint64_t seed, Volt vdd,
                            std::shared_ptr<reliability::ModelTableCache> tables,
                            reliability::AccessErrorModel access =
                                reliability::cell_based_40nm_access()) {
  return sim::SramModule("t", kWords, kBits, access,
                         reliability::cell_based_40nm_retention(), vdd,
                         Rng(seed), /*inject_faults=*/true, std::move(tables));
}

/// Stuck cells of the module built by make_module(seed, vdd, ...), from
/// the eager reference table over the same fingerprint stream.
std::size_t eager_stuck_bits(std::uint64_t seed, Volt vdd) {
  return reliability::make_retention_vmin_table(
             reliability::cell_based_40nm_retention(),
             Rng(seed).fork(0x51d3).seed(), std::size_t{kWords} * kBits)
      ->failing_count(vdd);
}

TEST(SharedTablesTest, CachedAndPrivatePathsAreBitIdentical) {
  // Each prefix of the sweep: a module with the shared cache walked
  // through it against a private module built at its last supply.  No
  // access happens during the walk, so both flip streams are untouched
  // and the same writes and reads see the same flips: the raw words
  // agree exactly when the stuck overlays and access rates do.
  auto tables = std::make_shared<reliability::ModelTableCache>();
  std::size_t deep_stuck = 0;
  std::uint64_t flips = 0;
  for (std::size_t end = 1; end <= std::size(kSweep); ++end) {
    const Volt last{kSweep[end - 1]};
    sim::SramModule swept = make_module(42, Volt{kSweep[0]}, tables);
    for (std::size_t i = 1; i < end; ++i) swept.set_vdd(Volt{kSweep[i]});
    sim::SramModule fresh = make_module(42, last, nullptr);
    ASSERT_EQ(swept.stats().stuck_bits, fresh.stats().stuck_bits)
        << "vdd " << last.value;
    ASSERT_EQ(swept.stats().stuck_bits, eager_stuck_bits(42, last))
        << "vdd " << last.value;
    deep_stuck += swept.stats().stuck_bits;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      const std::uint64_t v = (w * 0x9e3779b9ull) & ((1ull << kBits) - 1);
      swept.write_raw(w, v);
      fresh.write_raw(w, v);
    }
    for (std::uint32_t w = 0; w < kWords; ++w)
      ASSERT_EQ(swept.read_raw(w), fresh.read_raw(w))
          << "vdd " << last.value << " word " << w;
    EXPECT_EQ(swept.stats().injected_read_flips,
              fresh.stats().injected_read_flips);
    EXPECT_EQ(swept.stats().injected_write_flips,
              fresh.stats().injected_write_flips);
    flips += swept.stats().injected_read_flips;
  }
  EXPECT_GT(deep_stuck, 0u);
  EXPECT_GT(flips, 0u);
  EXPECT_EQ(tables->vmin_tables(), 0u);
}

TEST(SharedTablesTest, VoltageSweepHealsIdentically) {
  // One module swept through every supply, with accesses in between,
  // against a module built fresh at each.  The access model is moved
  // out of reach (V0 below every supply) so reads see only the stuck
  // overlay and the two flip streams cannot drift apart.
  const reliability::AccessErrorModel no_flips(3.38, 7.2, Volt{0.1});
  auto tables = std::make_shared<reliability::ModelTableCache>();
  sim::SramModule swept = make_module(7, Volt{kSweep[0]}, tables, no_flips);
  for (const double vdd : kSweep) {
    swept.set_vdd(Volt{vdd});
    sim::SramModule fresh = make_module(7, Volt{vdd}, nullptr, no_flips);
    EXPECT_EQ(swept.stats().stuck_bits, fresh.stats().stuck_bits)
        << "vdd " << vdd;
    EXPECT_EQ(swept.stats().stuck_bits, eager_stuck_bits(7, Volt{vdd}))
        << "vdd " << vdd;
    // Clear what earlier supplies committed to the healed cells; the
    // fresh module's words hold only its own overlay.
    for (std::uint32_t w = 0; w < kWords; ++w) {
      swept.write_raw(w, 0);
      ASSERT_EQ(swept.read_raw(w), fresh.read_raw(w))
          << "vdd " << vdd << " word " << w;
    }
  }
}

TEST(SramResetTest, ResetMatchesFreshConstruction) {
  auto tables = std::make_shared<reliability::ModelTableCache>();
  // Run a pooled module through a different seed's history first.
  sim::SramModule pooled = make_module(1, Volt{0.26}, tables);
  for (std::uint32_t w = 0; w < 256; ++w)
    pooled.write_raw(w, (w * 2654435761ull) & ((1ull << 39) - 1));
  pooled.set_vdd(Volt{0.5});
  pooled.reset(Volt{0.26}, Rng(2));

  sim::SramModule fresh = make_module(2, Volt{0.26}, nullptr);
  EXPECT_EQ(pooled.stats().stuck_bits, fresh.stats().stuck_bits);
  for (std::uint32_t w = 0; w < 256; ++w)
    ASSERT_EQ(pooled.read_raw(w), fresh.read_raw(w)) << w;
  // Interleave writes after reset too: the flip streams must stay in
  // lock-step.
  for (std::uint32_t w = 0; w < 256; ++w) {
    const std::uint64_t v = (w * 0x9e3779b9ull) & ((1ull << 39) - 1);
    pooled.write_raw(w, v);
    fresh.write_raw(w, v);
    ASSERT_EQ(pooled.read_raw(w), fresh.read_raw(w)) << w;
  }
}

}  // namespace
}  // namespace ntc
