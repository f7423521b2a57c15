#include "reliability/model_tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
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

TEST(ModelTableCacheTest, SharesTablesPerKeyAndMemoisesAccessCurve) {
  reliability::ModelTableCache cache;
  const reliability::NoiseMarginModel retention =
      reliability::cell_based_40nm_retention();
  const auto a = cache.retention_vmin(retention, 7, 1024);
  const auto b = cache.retention_vmin(retention, 7, 1024);
  EXPECT_EQ(a.get(), b.get());  // same key -> same shared table
  const auto c = cache.retention_vmin(retention, 8, 1024);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.vmin_tables(), 2u);

  const reliability::AccessErrorModel access =
      reliability::cell_based_40nm_access();
  const double p = cache.p_access(access, Volt{0.4});
  EXPECT_EQ(p, access.p_bit_err(Volt{0.4}));
  cache.p_access(access, Volt{0.4});
  cache.p_access(access, Volt{0.45});
  EXPECT_EQ(cache.access_points(), 2u);
}

sim::SramModule make_module(std::uint64_t seed, Volt vdd,
                            std::shared_ptr<reliability::ModelTableCache> tables) {
  return sim::SramModule(
      "t", 256, 39, reliability::cell_based_40nm_access(),
      reliability::cell_based_40nm_retention(), vdd, Rng(seed),
      /*inject_faults=*/true, std::move(tables));
}

TEST(SharedTablesTest, CachedAndPrivatePathsAreBitIdentical) {
  // Deep supply: stuck cells present and access flips active, so both
  // the fingerprint and the flip stream are exercised.
  auto tables = std::make_shared<reliability::ModelTableCache>();
  for (double vdd : {0.26, 0.32, 0.5}) {
    sim::SramModule with_cache = make_module(42, Volt{vdd}, tables);
    sim::SramModule without = make_module(42, Volt{vdd}, nullptr);
    EXPECT_EQ(with_cache.stats().stuck_bits, without.stats().stuck_bits);
    for (std::uint32_t w = 0; w < 256; ++w)
      ASSERT_EQ(with_cache.read_raw(w), without.read_raw(w)) << w;
  }
}

TEST(SharedTablesTest, VoltageSweepHealsIdentically) {
  auto tables = std::make_shared<reliability::ModelTableCache>();
  sim::SramModule with_cache = make_module(7, Volt{0.26}, tables);
  sim::SramModule without = make_module(7, Volt{0.26}, nullptr);
  for (double vdd : {0.24, 0.3, 0.45, 0.7, 0.26}) {
    with_cache.set_vdd(Volt{vdd});
    without.set_vdd(Volt{vdd});
    EXPECT_EQ(with_cache.stats().stuck_bits, without.stats().stuck_bits);
    for (std::uint32_t w = 0; w < 256; ++w)
      ASSERT_EQ(with_cache.read_raw(w), without.read_raw(w))
          << "vdd " << vdd << " word " << w;
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
