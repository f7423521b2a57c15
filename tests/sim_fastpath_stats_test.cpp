// The SramModule access fast paths (cached stuck overlay, skipped
// injector walk when no flips are possible) must be invisible: every
// read value and every counter has to match the slow path bit for bit.
//
// The trick: attaching a no-op injector that reports a non-stationary
// overlay forces a module onto the slow path without changing any
// fault behaviour, so a same-seed twin on the fast path must stay
// identical through writes, reads and voltage sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "faultsim/scenario.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/sram_module.hpp"

namespace ntc::sim {
namespace {

/// Contributes nothing but refuses the overlay cache, pinning the host
/// module to the per-access injector walk.
class ShadowInjector final : public FaultInjector {
 public:
  std::string name() const override { return "shadow"; }
  bool overlay_is_stationary() const override { return false; }
};

SramModule make_sram(Volt vdd, bool inject, std::uint64_t seed = 1,
                     std::uint32_t words = 64) {
  return SramModule("test", words, 32, reliability::cell_based_40nm_access(),
                    reliability::cell_based_40nm_retention(), vdd, Rng(seed),
                    inject);
}

void expect_same_stats(const SramModule& a, const SramModule& b) {
  EXPECT_EQ(a.stats().reads, b.stats().reads);
  EXPECT_EQ(a.stats().writes, b.stats().writes);
  EXPECT_EQ(a.stats().injected_read_flips, b.stats().injected_read_flips);
  EXPECT_EQ(a.stats().injected_write_flips, b.stats().injected_write_flips);
  EXPECT_EQ(a.stats().stuck_bits, b.stats().stuck_bits);
}

TEST(SramFastPath, IdenticalToSlowPathAcrossVoltageSweep) {
  // Same seed, same accesses; `slow` carries the shadow injector so it
  // takes the per-access chain walk the fast path elides.
  SramModule fast = make_sram(Volt{0.60}, /*inject=*/true, 42);
  SramModule slow = make_sram(Volt{0.60}, /*inject=*/true, 42);
  slow.attach_injector(std::make_shared<ShadowInjector>());

  std::uint64_t pattern = 0x12345678u;
  for (const double v : {0.60, 0.50, 0.44, 0.40, 0.46, 0.60}) {
    fast.set_vdd(Volt{v});
    slow.set_vdd(Volt{v});
    EXPECT_EQ(fast.stats().stuck_bits, slow.stats().stuck_bits) << "v=" << v;
    for (std::uint32_t w = 0; w < fast.words(); ++w) {
      fast.write_raw(w, pattern & 0xFFFFFFFFull);
      slow.write_raw(w, pattern & 0xFFFFFFFFull);
      pattern = pattern * 2862933555777941757ull + 3037000493ull;
    }
    for (std::uint32_t w = 0; w < fast.words(); ++w)
      EXPECT_EQ(fast.read_raw(w), slow.read_raw(w)) << "v=" << v << " w=" << w;
    expect_same_stats(fast, slow);
  }
}

TEST(SramFastPath, SweptStuckSetMatchesFreshModuleAtSameVoltage) {
  // Walking a module down and back up must land on exactly the stuck
  // set a fresh same-seed module derives at that voltage — this guards
  // the incremental V_min bookkeeping inside the array's FaultDraw.
  for (const double v : {0.60, 0.44, 0.40, 0.50}) {
    SramModule swept = make_sram(Volt{0.60}, /*inject=*/true, 7);
    swept.set_vdd(Volt{0.38});
    swept.set_vdd(Volt{v});
    SramModule fresh = make_sram(Volt{v}, /*inject=*/true, 7);
    EXPECT_EQ(swept.stats().stuck_bits, fresh.stats().stuck_bits) << "v=" << v;
    // The forced cells must read back identically too (same overlay,
    // same stuck values), not merely count the same.
    for (std::uint32_t w = 0; w < swept.words(); ++w) {
      swept.write_raw(w, 0);
      fresh.write_raw(w, 0);
    }
    swept.reset_stats();
    fresh.reset_stats();
    for (std::uint32_t w = 0; w < swept.words(); ++w)
      EXPECT_EQ(swept.read_raw(w) & ~0ull, fresh.read_raw(w)) << "w=" << w;
  }
}

TEST(SramFastPath, AccessArmedStuckEventDefeatsOverlayCache) {
  // A stuck event armed on the access counter must appear exactly at
  // its arm point even though the module would otherwise cache the
  // overlay; this is the regression the overlay_is_stationary() seam
  // exists for.
  SramModule sram = make_sram(Volt{0.60}, /*inject=*/false, 1, 8);
  faultsim::FaultEvent event =
      faultsim::FaultEvent::stuck_at(3, 0b11, 0b01);
  event.arm_at_access = 5;
  sram.attach_injector(std::make_shared<faultsim::ScenarioInjector>(
      std::vector<faultsim::FaultEvent>{event}));

  sram.write_raw(3, 0b10);                 // access 1
  EXPECT_EQ(sram.read_raw(3), 0b10ull);    // 2: not armed yet
  EXPECT_EQ(sram.read_raw(3), 0b10ull);    // 3
  EXPECT_EQ(sram.read_raw(3), 0b10ull);    // 4
  EXPECT_EQ(sram.read_raw(3), 0b01ull);    // 5: armed, overlay forces 0b01
  EXPECT_EQ(sram.read_raw(3), 0b01ull);    // stays forced
}

TEST(SramFastPath, StationaryScenarioStillInjectsBursts) {
  // A scenario with only full-window events is overlay-stationary, so
  // the module caches the stuck overlay — but its read bursts are
  // access flips and must keep firing through the cached path.
  SramModule sram = make_sram(Volt{0.60}, /*inject=*/false, 1, 8);
  sram.attach_injector(std::make_shared<faultsim::ScenarioInjector>(
      std::vector<faultsim::FaultEvent>{
          faultsim::FaultEvent::stuck_at(1, 0b1, 0b1),
          faultsim::FaultEvent::read_burst(4, 0, 3)}));
  EXPECT_EQ(sram.stats().stuck_bits, 1u);

  sram.write_raw(4, 0);
  EXPECT_EQ(sram.read_raw(4), 0b111ull);
  EXPECT_EQ(sram.stats().injected_read_flips, 3u);
  sram.write_raw(1, 0);
  EXPECT_EQ(sram.read_raw(1), 0b1ull);  // cached overlay applies
}

}  // namespace
}  // namespace ntc::sim
