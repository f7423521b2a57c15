// Multi-tile platform unit coverage: the skewed bank map is bijective,
// the arbiter replay is deterministic (zero-stall at one tile, fair
// under round-robin, starving under fixed priority), mixed per-tile
// schemes decode region-correctly through the shared memory, native
// bursts match the scalar decomposition, and the 4-tile sharded FFT is
// bit-exact against the sequential FixedPointFft at 0.60 V while bank
// contention grows monotonically as the bank count shrinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ecc/hamming.hpp"
#include "energy/memory_calculator.hpp"
#include "multitile/arbiter.hpp"
#include "multitile/banked_memory.hpp"
#include "multitile/shared_memory.hpp"
#include "multitile/sharded_fft.hpp"
#include "multitile/tiled_platform.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/ecc_memory.hpp"
#include "sim/sram_module.hpp"
#include "workloads/fft.hpp"

namespace ntc {
namespace {

using mitigation::SchemeKind;

std::vector<std::complex<double>> test_signal(std::size_t n) {
  std::vector<std::complex<double>> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    signal[i] = 0.30 * std::sin(2.0 * M_PI * 13.0 * t) +
                0.20 * std::cos(2.0 * M_PI * 5.0 * t);
  }
  return signal;
}

// ---------------------------------------------------------------- bank map

TEST(BankMap, IsBijectiveAcrossBankCountsAndInterleaves) {
  for (const std::uint32_t banks : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t interleave : {1u, 4u}) {
      multitile::BankedMemoryConfig config;
      config.total_words = 512;
      config.banks = banks;
      config.interleave_words = interleave;
      config.inject_faults = false;
      multitile::BankedMemory memory(config);
      std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
      for (std::uint32_t w = 0; w < config.total_words; ++w) {
        const multitile::BankAddress a = memory.map(w);
        ASSERT_LT(a.bank, banks);
        ASSERT_LT(a.offset, memory.words_per_bank());
        ASSERT_TRUE(seen.emplace(a.bank, a.offset).second)
            << "word " << w << " collides at banks=" << banks
            << " g=" << interleave;
      }
      EXPECT_EQ(seen.size(), config.total_words);
    }
  }
}

TEST(BankMap, OneBankIsTheIdentity) {
  multitile::BankedMemoryConfig config;
  config.total_words = 256;
  config.banks = 1;
  config.inject_faults = false;
  multitile::BankedMemory memory(config);
  for (std::uint32_t w = 0; w < config.total_words; ++w) {
    const multitile::BankAddress a = memory.map(w);
    EXPECT_EQ(a.bank, 0u);
    EXPECT_EQ(a.offset, w);
  }
}

TEST(BankMap, XorFoldSkewsPowerOfTwoStrides) {
  // A classic modulo stripe sends every stride-M access to one bank;
  // the XOR fold must spread the FFT's natural power-of-two strides.
  multitile::BankedMemoryConfig config;
  config.total_words = 1024;
  config.banks = 4;
  config.inject_faults = false;
  multitile::BankedMemory memory(config);
  for (const std::uint32_t stride : {4u, 8u, 16u}) {
    std::set<std::uint32_t> banks_hit;
    for (std::uint32_t w = 0; w < config.total_words; w += stride)
      banks_hit.insert(memory.map(w).bank);
    EXPECT_GT(banks_hit.size(), 1u) << "stride " << stride << " unskewed";
  }
}

TEST(BankMap, RoundTripsDataThroughTheStripe) {
  multitile::BankedMemoryConfig config;
  config.total_words = 256;
  config.banks = 4;
  config.stored_bits = 39;
  config.vdd = Volt{0.60};
  config.inject_faults = false;
  multitile::BankedMemory memory(config);
  for (std::uint32_t w = 0; w < config.total_words; ++w)
    memory.write_raw(w, (static_cast<std::uint64_t>(w) << 7) ^ 0x5Au);
  for (std::uint32_t w = 0; w < config.total_words; ++w)
    EXPECT_EQ(memory.read_raw(w), (static_cast<std::uint64_t>(w) << 7) ^ 0x5Au);
}

// ----------------------------------------------------------------- arbiter

TEST(Arbiter, SingleTileNeverStalls) {
  multitile::ArbiterConfig config;
  config.tiles = 1;
  config.banks = 1;
  multitile::Arbiter arbiter(config);
  for (int epoch = 0; epoch < 4; ++epoch) {
    arbiter.log_access(0, 0, 16);
    arbiter.log_access(0, 0, 16);  // coalesces with the previous run
    arbiter.add_compute(0, 100);
    EXPECT_EQ(arbiter.end_epoch(), 100u)
        << "one tile: epoch costs exactly its compute";
  }
  EXPECT_EQ(arbiter.stats().contention_cycles, 0u);
  EXPECT_EQ(arbiter.stats().epochs, 4u);
  EXPECT_EQ(arbiter.stats().requests, 4u) << "same-bank runs must coalesce";
  EXPECT_EQ(arbiter.stats().beats, 4u * 32u);
}

TEST(Arbiter, ReplayIsDeterministic) {
  const auto drive = [](multitile::Arbiter& arbiter) {
    for (int epoch = 0; epoch < 3; ++epoch) {
      arbiter.log_access(0, 0, 8);
      arbiter.log_access(1, 0, 4);
      arbiter.log_access(2, 1, 8);
      arbiter.log_access(1, 1, 2);
      arbiter.add_compute(0, 20);
      arbiter.add_compute(1, 10);
      arbiter.add_compute(2, 30);
      arbiter.end_epoch();
    }
  };
  multitile::ArbiterConfig config;
  config.tiles = 4;
  config.banks = 2;
  multitile::Arbiter a(config);
  multitile::Arbiter b(config);
  drive(a);
  drive(b);
  EXPECT_EQ(a.stats().contention_cycles, b.stats().contention_cycles);
  EXPECT_EQ(a.stats().makespan_cycles, b.stats().makespan_cycles);
  EXPECT_EQ(a.tile_stall_cycles(), b.tile_stall_cycles());
  EXPECT_EQ(a.bank_busy_cycles(), b.bank_busy_cycles());
  EXPECT_GT(a.stats().contention_cycles, 0u);
}

TEST(Arbiter, RoundRobinPointerRotatesTieBreaksFixedPriorityDoesNot) {
  // Epoch 1 grants only tile 0, which (under round-robin) advances the
  // pointer past it; in epoch 2's symmetric collision tile 1 therefore
  // wins the tie and tile 0 eats the stall.  Fixed priority grants
  // tile 0 both times.
  const auto drive = [](multitile::Arbiter& arbiter) {
    arbiter.log_access(0, 0, 4);
    arbiter.add_compute(0, 1);
    arbiter.end_epoch();
    arbiter.log_access(0, 0, 8);
    arbiter.log_access(1, 0, 8);
    arbiter.add_compute(0, 1);
    arbiter.add_compute(1, 1);
    arbiter.end_epoch();
  };
  multitile::ArbiterConfig config;
  config.tiles = 2;
  config.banks = 1;

  config.policy = multitile::ArbitrationPolicy::RoundRobin;
  multitile::Arbiter rr(config);
  drive(rr);
  EXPECT_EQ(rr.tile_stall_cycles()[0], 8u) << "pointer moved on, tile 1 first";
  EXPECT_EQ(rr.tile_stall_cycles()[1], 0u);

  config.policy = multitile::ArbitrationPolicy::FixedPriority;
  multitile::Arbiter fp(config);
  drive(fp);
  EXPECT_EQ(fp.tile_stall_cycles()[0], 0u) << "lowest tile id always wins";
  EXPECT_EQ(fp.tile_stall_cycles()[1], 8u);
  EXPECT_EQ(fp.stats().contention_cycles, rr.stats().contention_cycles)
      << "policy redistributes the stall, total waiting is the same here";
}

TEST(Arbiter, ArbitrationLatencyChargesEveryGrant) {
  multitile::ArbiterConfig config;
  config.tiles = 1;
  config.banks = 2;
  config.arbitration_latency = 3;
  multitile::Arbiter arbiter(config);
  arbiter.log_access(0, 0, 4);
  arbiter.log_access(0, 1, 4);  // different bank: no coalescing
  arbiter.add_compute(0, 2);
  const std::uint64_t makespan = arbiter.end_epoch();
  // Memory beats occupy banks but never extend a tile's duration (the
  // compute-only accounting the classic platform uses); each grant
  // still holds its bank for beats + latency.
  EXPECT_EQ(makespan, 2u);
  EXPECT_EQ(arbiter.stats().requests, 2u);
  EXPECT_EQ(arbiter.bank_busy_cycles()[0], 4u + 3u);
  EXPECT_EQ(arbiter.bank_busy_cycles()[1], 4u + 3u);
}

// ----------------------------------------------- shared memory / regions

multitile::BankedMemoryConfig shared_bank_config(std::uint32_t words,
                                                 std::uint32_t banks,
                                                 Volt vdd, bool inject,
                                                 std::uint64_t seed = 1) {
  multitile::BankedMemoryConfig config;
  config.total_words = words;
  config.banks = banks;
  config.stored_bits = 39;
  config.vdd = vdd;
  config.seed = seed;
  config.inject_faults = inject;
  return config;
}

TEST(SharedMemory, MixedSchemesDecodePerRegion) {
  multitile::SharedMemory shared(
      shared_bank_config(256, 2, Volt{0.60}, /*inject=*/false),
      {SchemeKind::NoMitigation, SchemeKind::Secded});
  ASSERT_EQ(shared.region_count(), 2u);
  EXPECT_EQ(shared.region(0).scheme, SchemeKind::NoMitigation);
  EXPECT_EQ(shared.region(1).scheme, SchemeKind::Secded);
  EXPECT_EQ(shared.region_words(), 128u);
  EXPECT_EQ(shared.region_of(0), 0u);
  EXPECT_EQ(shared.region_of(128), 1u);

  for (std::uint32_t w = 0; w < 256; ++w)
    ASSERT_EQ(shared.write_word(w, w * 2654435761u), sim::AccessStatus::Ok);
  for (std::uint32_t w = 0; w < 256; ++w) {
    std::uint32_t data = 0;
    ASSERT_EQ(shared.read_word(w, data), sim::AccessStatus::Ok);
    EXPECT_EQ(data, w * 2654435761u);
  }

  // The raw region stores 32-bit words verbatim; the SECDED region
  // stores 39-bit codewords (parity bits above bit 31).
  const std::uint64_t raw_none = shared.banks().read_raw(3);
  EXPECT_EQ(raw_none >> 32, 0u);
  bool any_parity = false;
  for (std::uint32_t w = 128; w < 256 && !any_parity; ++w)
    any_parity = (shared.banks().read_raw(w) >> 32) != 0;
  EXPECT_TRUE(any_parity);
}

TEST(SharedMemory, ProtectedRegionCorrectsWhereRawRegionCannot) {
  // Deep below V0 both regions see the same stochastic cell model, but
  // only the SECDED region can turn single-bit flips into corrections.
  multitile::SharedMemory shared(
      shared_bank_config(256, 2, Volt{0.30}, /*inject=*/true, 99),
      {SchemeKind::NoMitigation, SchemeKind::Secded});
  std::vector<std::uint32_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(i * 2654435761u);
  std::vector<std::uint32_t> got(256);
  for (int pass = 0; pass < 50; ++pass) {
    shared.write_burst(0, data);
    shared.read_burst(0, got);
    if (shared.region(1).stats.corrected_words > 0) break;
  }
  EXPECT_GT(shared.region(1).stats.corrected_words, 0u);
  EXPECT_EQ(shared.region(0).stats.corrected_words, 0u)
      << "an unprotected region has no decoder to correct with";
}

TEST(SharedMemory, RequiredStoredBitsFollowsTheWidestScheme) {
  EXPECT_EQ(multitile::SharedMemory::required_stored_bits(
                {SchemeKind::NoMitigation}),
            32u);
  EXPECT_EQ(multitile::SharedMemory::required_stored_bits(
                {SchemeKind::NoMitigation, SchemeKind::Secded}),
            39u);
  EXPECT_EQ(multitile::SharedMemory::required_stored_bits(
                {SchemeKind::Ocean}),
            39u);
}

TEST(SharedMemory, BurstsMatchTheScalarDecomposition) {
  // Same seed, same voltage, two instances: one driven by native
  // bursts, one word at a time.  Data, statuses and every counter must
  // agree — the determinism contract that keeps ledgers engine-proof.
  const std::vector<SchemeKind> schemes = {SchemeKind::Secded,
                                           SchemeKind::NoMitigation};
  multitile::SharedMemory burst(
      shared_bank_config(256, 4, Volt{0.33}, /*inject=*/true, 7), schemes);
  multitile::SharedMemory scalar(
      shared_bank_config(256, 4, Volt{0.33}, /*inject=*/true, 7), schemes);

  std::vector<std::uint32_t> data(200);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(0x9E3779B9u * (i + 1));

  // Straddle the region boundary (words 28..227) so the burst splits.
  const sim::AccessStatus ws = burst.write_burst(28, data);
  sim::AccessStatus ws_scalar = sim::AccessStatus::Ok;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const sim::AccessStatus s =
        scalar.write_word(28 + static_cast<std::uint32_t>(i), data[i]);
    if (s != sim::AccessStatus::Ok) ws_scalar = s;
  }
  EXPECT_EQ(ws, ws_scalar);

  std::vector<std::uint32_t> got_burst(data.size());
  std::vector<std::uint32_t> got_scalar(data.size());
  const sim::AccessStatus rs = burst.read_burst(28, got_burst);
  sim::AccessStatus rs_scalar = sim::AccessStatus::Ok;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const sim::AccessStatus s =
        scalar.read_word(28 + static_cast<std::uint32_t>(i), got_scalar[i]);
    if (s != sim::AccessStatus::Ok) rs_scalar = s;
  }
  EXPECT_EQ(rs, rs_scalar);
  EXPECT_EQ(got_burst, got_scalar);

  for (std::size_t r = 0; r < burst.region_count(); ++r) {
    EXPECT_EQ(burst.region(r).stats.corrected_words,
              scalar.region(r).stats.corrected_words)
        << "region " << r;
    EXPECT_EQ(burst.region(r).stats.uncorrectable_words,
              scalar.region(r).stats.uncorrectable_words)
        << "region " << r;
  }
  for (std::uint32_t b = 0; b < burst.banks().bank_count(); ++b) {
    EXPECT_EQ(burst.banks().bank(b).stats().reads,
              scalar.banks().bank(b).stats().reads)
        << "bank " << b;
    EXPECT_EQ(burst.banks().bank(b).stats().injected_read_flips,
              scalar.banks().bank(b).stats().injected_read_flips)
        << "bank " << b;
    EXPECT_EQ(burst.banks().bank(b).stats().injected_write_flips,
              scalar.banks().bank(b).stats().injected_write_flips)
        << "bank " << b;
  }
}

TEST(TileLink, CountedReadChargesEachReRequestedRemainder) {
  // The initiator re-requests the rest of its burst after each
  // uncorrectable word, so one counted read of n words with bad words
  // at offsets b charges n + sum(n - b - 1) beats.  A bad last word
  // leaves nothing to re-request.
  multitile::TiledPlatformConfig config;
  config.tile_schemes = {SchemeKind::Secded};
  config.banks = 2;
  config.vdd = Volt{0.60};
  config.inject_faults = false;
  multitile::TiledPlatform platform(config);
  multitile::SharedMemory& shared = platform.shared();
  constexpr std::uint32_t base = 16;
  constexpr std::uint32_t n = 24;
  for (std::uint32_t w = 0; w < n; ++w)
    ASSERT_EQ(shared.write_word(base + w, w * 0x01010101u),
              sim::AccessStatus::Ok);
  const std::vector<std::uint32_t> bad = {3, 10, 11, n - 1};
  for (const std::uint32_t b : bad)
    shared.banks().write_raw(base + b,
                             shared.banks().read_raw(base + b) ^ 0b110ull);

  platform.barrier();
  const std::uint64_t beats_before = platform.arbiter().stats().beats;
  std::vector<std::uint32_t> data(n, 0xFFFFFFFFu);
  std::uint64_t uncorrectable = 0;
  EXPECT_EQ(platform.link(0).read_burst_counted(base, data, uncorrectable),
            sim::AccessStatus::DetectedUncorrectable);
  platform.barrier();

  EXPECT_EQ(uncorrectable, bad.size());
  std::uint64_t expected_beats = n;
  for (const std::uint32_t b : bad) expected_beats += n - b - 1;
  EXPECT_EQ(platform.arbiter().stats().beats - beats_before, expected_beats);
  for (std::uint32_t w = 0; w < n; ++w) {
    if (std::find(bad.begin(), bad.end(), w) == bad.end()) {
      EXPECT_EQ(data[w], w * 0x01010101u) << "w=" << w;
    }
  }
}

// -------------------------------------------------------- sharded FFT

multitile::TiledPlatformConfig fft_platform_config(
    std::vector<SchemeKind> schemes, std::uint32_t banks, std::size_t points) {
  multitile::TiledPlatformConfig config;
  config.tile_schemes = std::move(schemes);
  config.banks = banks;
  config.vdd = Volt{0.60};
  config.inject_faults = false;
  config.shared_bytes =
      std::max<std::uint32_t>(8 * 1024, static_cast<std::uint32_t>(points) * 4);
  config.pm_bytes = static_cast<std::uint32_t>(points) * 8;
  return config;
}

std::vector<std::uint32_t> golden_fft_words(std::size_t points) {
  // The sequential FixedPointFft on a fault-free SECDED scratchpad —
  // the classic single-core datapath.
  energy::MemoryCalculator calc(
      energy::MemoryStyle::CellBasedImec40,
      energy::MemoryGeometry{static_cast<std::uint32_t>(points), 32});
  sim::EccMemory spm(
      std::make_unique<sim::SramModule>(
          "spm", static_cast<std::uint32_t>(points), 39, calc.access_model(),
          calc.retention_model(), Volt{0.60}, Rng(1), /*inject=*/false),
      std::make_shared<ecc::HammingSecded>(32));
  workloads::FixedPointFft fft(points);
  fft.set_input(test_signal(points));
  fft.initialize(spm);
  for (std::size_t phase = 0; phase < fft.phase_count(); ++phase)
    fft.run_phase(phase, spm);
  std::vector<std::uint32_t> words(points);
  for (std::uint32_t i = 0; i < points; ++i)
    EXPECT_EQ(spm.read_word(i, words[i]), sim::AccessStatus::Ok);
  return words;
}

std::vector<std::uint32_t> sharded_fft_words(multitile::TiledPlatform& platform,
                                             std::size_t points) {
  multitile::ShardedFft fft(platform, points);
  fft.set_input(test_signal(points));
  const multitile::ShardedFft::RunResult run = fft.run();
  EXPECT_TRUE(run.completed);
  EXPECT_FALSE(run.system_failure);
  EXPECT_EQ(run.faulted_phases, 0u);
  std::vector<std::uint32_t> words(points);
  for (std::uint32_t i = 0; i < points; ++i)
    EXPECT_EQ(platform.shared().read_word(fft.physical_index(i), words[i]),
              sim::AccessStatus::Ok);
  return words;
}

TEST(ShardedFft, FourTilesBitExactAgainstSequentialFft) {
  const std::size_t points = 256;
  const std::vector<std::uint32_t> golden = golden_fft_words(points);
  for (const std::uint32_t banks : {4u, 1u}) {
    multitile::TiledPlatform platform(fft_platform_config(
        {SchemeKind::Secded, SchemeKind::Secded, SchemeKind::Secded,
         SchemeKind::Secded},
        banks, points));
    EXPECT_EQ(sharded_fft_words(platform, points), golden)
        << "banks=" << banks;
  }
}

TEST(ShardedFft, MixedSchemeTilesStayBitExact) {
  // None + SECDED + OCEAN tiles sharing the array: protection changes
  // storage encodings and timing, never the fault-free numerics.
  const std::size_t points = 256;
  const std::vector<std::uint32_t> golden = golden_fft_words(points);
  multitile::TiledPlatform platform(fft_platform_config(
      {SchemeKind::NoMitigation, SchemeKind::Secded, SchemeKind::Ocean,
       SchemeKind::Secded},
      4, points));
  EXPECT_EQ(sharded_fft_words(platform, points), golden);
  EXPECT_GT(platform.contention_cycles(), 0u);
}

TEST(ShardedFft, ContentionGrowsMonotonicallyAsBanksShrink) {
  const std::size_t points = 256;
  std::vector<std::uint64_t> contention;
  std::vector<std::uint64_t> cycles;
  for (const std::uint32_t banks : {4u, 2u, 1u}) {
    multitile::TiledPlatform platform(fft_platform_config(
        {SchemeKind::Secded, SchemeKind::Secded, SchemeKind::Secded,
         SchemeKind::Secded},
        banks, points));
    sharded_fft_words(platform, points);
    contention.push_back(platform.contention_cycles());
    cycles.push_back(platform.total_cycles());
  }
  EXPECT_GT(contention[0], 0u) << "4 tiles on 4 banks still collide";
  EXPECT_LT(contention[0], contention[1]) << "2 banks contend harder";
  EXPECT_LT(contention[1], contention[2]) << "1 bank serializes everything";
  EXPECT_LT(cycles[0], cycles[2])
      << "the stall shows up in the platform clock";
}

TEST(ShardedFft, SingleTileHasZeroContention) {
  const std::size_t points = 256;
  multitile::TiledPlatform platform(
      fft_platform_config({SchemeKind::Secded}, 1, points));
  EXPECT_EQ(sharded_fft_words(platform, points), golden_fft_words(points));
  EXPECT_EQ(platform.contention_cycles(), 0u);
}

TEST(ShardedFft, RunsAreDeterministicAfterReset) {
  const std::size_t points = 256;
  multitile::TiledPlatformConfig config = fft_platform_config(
      {SchemeKind::Secded, SchemeKind::Ocean, SchemeKind::NoMitigation,
       SchemeKind::Secded},
      2, points);
  config.inject_faults = true;
  config.vdd = Volt{0.45};
  multitile::TiledPlatform platform(config);

  const auto run_once = [&](std::uint64_t seed) {
    platform.reset(seed, config.vdd);
    multitile::ShardedFft fft(platform, points);
    fft.set_input(test_signal(points));
    fft.run();
    std::vector<std::uint32_t> words(points);
    for (std::uint32_t i = 0; i < points; ++i)
      platform.shared().read_word(fft.physical_index(i), words[i]);
    return std::make_pair(words, std::make_pair(platform.total_cycles(),
                                                platform.contention_cycles()));
  };
  const auto first = run_once(42);
  const auto second = run_once(42);
  EXPECT_EQ(first.first, second.first) << "same seed, same stored words";
  EXPECT_EQ(first.second, second.second) << "same cycles and contention";
  const auto other = run_once(43);
  EXPECT_EQ(other.first.size(), first.first.size());
}

}  // namespace
}  // namespace ntc
