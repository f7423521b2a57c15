// Multi-tile platform unit coverage: the skewed bank map is bijective,
// banked raw bursts replay the per-word walk, the arbiter replay is
// deterministic (zero-stall at one tile, fair under round-robin,
// starving under fixed priority) and matches its modulo-scan reference,
// mixed per-tile schemes decode region-correctly through the shared
// memory, native bursts and counted reads match the scalar
// decomposition, and the 4-tile sharded FFT is bit-exact against the
// sequential FixedPointFft at 0.60 V while bank contention grows
// monotonically as the bank count shrinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ecc/hamming.hpp"
#include "energy/memory_calculator.hpp"
#include "faultsim/scenario.hpp"
#include "multitile/arbiter.hpp"
#include "multitile/banked_memory.hpp"
#include "multitile/shared_memory.hpp"
#include "multitile/sharded_fft.hpp"
#include "multitile/tiled_platform.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/ecc_memory.hpp"
#include "sim/memory_port.hpp"
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

/// Scoped native-burst switch; restores the default (native) on exit.
struct NativeBurstGuard {
  explicit NativeBurstGuard(bool native) {
    sim::set_burst_native_enabled(native);
  }
  ~NativeBurstGuard() { sim::set_burst_native_enabled(true); }
};

void expect_same_stats(const sim::SramStats& a, const sim::SramStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.injected_read_flips, b.injected_read_flips) << where;
  EXPECT_EQ(a.injected_write_flips, b.injected_write_flips) << where;
  EXPECT_EQ(a.stuck_bits, b.stuck_bits) << where;
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

TEST(BankedBurst, MatchesThePerWordWalk) {
  // Twin memories at 0.30 V, same seed, same per-bank scripts (a read
  // burst, a stuck word and a transient flip armed on the bank's 300th
  // access): one moves every range of a window by raw bursts, the other
  // word by word.  The window crosses the lines of the 2- to 8-bank
  // geometries (M·g <= 32 words), so bursts start and end mid-line and
  // mid-block; one bank is a single run, and 512 banks (more than a
  // byte can name) put the window inside one line.
  constexpr std::uint32_t kFirst = 20;
  constexpr std::uint32_t kSpan = 60;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 39) - 1;
  using faultsim::FaultEvent;
  using faultsim::ScenarioInjector;
  for (const std::uint32_t banks : {1u, 2u, 4u, 8u, 512u}) {
    for (const std::uint32_t interleave : {1u, 4u}) {
      const std::string where = "banks=" + std::to_string(banks) +
                                " g=" + std::to_string(interleave);
      multitile::BankedMemoryConfig config;
      config.total_words = std::max(256u, banks * interleave);
      config.banks = banks;
      config.interleave_words = interleave;
      config.stored_bits = 39;
      config.vdd = Volt{0.30};
      config.seed = 11;
      multitile::BankedMemory burst(config);
      multitile::BankedMemory walk(config);
      std::vector<std::vector<FaultEvent>> script(banks);
      const auto at = [&](std::uint32_t word) { return burst.map(word); };
      script[at(27).bank].push_back(FaultEvent::read_burst(at(27).offset, 4, 3));
      script[at(41).bank].push_back(
          FaultEvent::stuck_at(at(41).offset, 0x7, 0x5));
      script[at(58).bank].push_back(
          FaultEvent::transient_flip(at(58).offset, 0x10, 300));
      std::vector<std::shared_ptr<ScenarioInjector>> burst_scripts;
      std::vector<std::shared_ptr<ScenarioInjector>> walk_scripts;
      for (std::uint32_t b = 0; b < banks; ++b) {
        burst_scripts.push_back(std::make_shared<ScenarioInjector>(script[b]));
        walk_scripts.push_back(std::make_shared<ScenarioInjector>(script[b]));
        burst.bank(b).attach_injector(burst_scripts[b]);
        walk.bank(b).attach_injector(walk_scripts[b]);
      }

      Rng values(5);
      for (std::uint32_t start = kFirst; start < kFirst + kSpan; ++start) {
        for (std::uint32_t len = 0; start + len <= kFirst + kSpan; ++len) {
          // Each bank's words form one ascending run of offsets.
          std::vector<std::vector<std::uint32_t>> offsets(banks);
          for (std::uint32_t w = start; w < start + len; ++w)
            offsets[burst.map(w).bank].push_back(burst.map(w).offset);
          for (const auto& run : offsets)
            for (std::size_t k = 1; k < run.size(); ++k)
              ASSERT_EQ(run[k], run[k - 1] + 1) << where << " start=" << start;

          std::vector<std::uint64_t> data(len);
          for (std::uint64_t& d : data) d = values.next_u64() & kMask;
          burst.write_raw_burst(start, data.data(), len);
          for (std::uint32_t i = 0; i < len; ++i)
            walk.write_raw(start + i, data[i]);
          std::vector<std::uint64_t> got_burst(len);
          std::vector<std::uint64_t> got_walk(len);
          burst.read_raw_burst(start, got_burst.data(), len);
          for (std::uint32_t i = 0; i < len; ++i)
            got_walk[i] = walk.read_raw(start + i);
          ASSERT_EQ(got_burst, got_walk)
              << where << " start=" << start << " len=" << len;
        }
      }
      std::uint64_t flips = 0;
      std::uint64_t fired = 0;
      for (std::uint32_t b = 0; b < banks; ++b) {
        const std::string bank = where + " bank " + std::to_string(b);
        expect_same_stats(burst.bank(b).stats(), walk.bank(b).stats(), bank);
        EXPECT_EQ(burst.bank(b).raw_words(), walk.bank(b).raw_words()) << bank;
        EXPECT_EQ(burst_scripts[b]->events_fired(),
                  walk_scripts[b]->events_fired())
            << bank;
        flips += burst.bank(b).stats().injected_read_flips +
                 burst.bank(b).stats().injected_write_flips;
        fired += burst_scripts[b]->events_fired();
      }
      EXPECT_GT(flips, 0u) << where << ": 0.30 V must flip bits";
      EXPECT_GT(fired, 0u) << where << ": the scripts must fire";
    }
  }
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

/// The epoch replay as it was before its tie scan dropped the modulo:
/// the reference for Arbiter::end_epoch (same logging, same grant rule).
class ModuloScanArbiter {
 public:
  explicit ModuloScanArbiter(multitile::ArbiterConfig config)
      : config_(config),
        pending_(config.tiles),
        epoch_compute_(config.tiles, 0),
        tile_stall_(config.tiles, 0),
        bank_busy_(config.banks, 0) {}

  void log_access(std::uint32_t tile, std::uint32_t bank,
                  std::uint32_t beats) {
    if (beats == 0) return;
    std::vector<Request>& queue = pending_[tile];
    if (!queue.empty() && queue.back().bank == bank) {
      queue.back().beats += beats;
      return;
    }
    queue.push_back(Request{bank, beats});
  }
  void add_compute(std::uint32_t tile, std::uint64_t cycles) {
    epoch_compute_[tile] += cycles;
  }

  std::uint64_t end_epoch() {
    const std::uint32_t tiles = config_.tiles;
    std::vector<std::size_t> next(tiles, 0);
    std::vector<std::uint64_t> clock(tiles, 0);
    std::vector<std::uint64_t> stall(tiles, 0);
    std::vector<std::uint64_t> free_at(config_.banks, 0);
    std::size_t remaining = 0;
    for (const auto& queue : pending_) remaining += queue.size();
    while (remaining > 0) {
      std::uint32_t chosen = tiles;
      std::uint64_t best = ~std::uint64_t{0};
      for (std::uint32_t i = 0; i < tiles; ++i) {
        const std::uint32_t t =
            config_.policy == multitile::ArbitrationPolicy::RoundRobin
                ? (rr_ + i) % tiles
                : i;
        if (next[t] >= pending_[t].size()) continue;
        if (clock[t] < best) {
          best = clock[t];
          chosen = t;
        }
      }
      const Request& rq = pending_[chosen][next[chosen]++];
      --remaining;
      const std::uint64_t start = std::max(clock[chosen], free_at[rq.bank]);
      stall[chosen] += start - clock[chosen];
      const std::uint64_t service = rq.beats + config_.arbitration_latency;
      clock[chosen] = start + service;
      free_at[rq.bank] = clock[chosen];
      bank_busy_[rq.bank] += service;
      ++stats.requests;
      stats.beats += rq.beats;
      if (config_.policy == multitile::ArbitrationPolicy::RoundRobin)
        rr_ = (chosen + 1) % tiles;
    }
    std::uint64_t epoch_max = 0;
    std::uint64_t epoch_stall = 0;
    for (std::uint32_t t = 0; t < tiles; ++t) {
      epoch_max = std::max(epoch_max, epoch_compute_[t] + stall[t]);
      epoch_stall += stall[t];
      tile_stall_[t] += stall[t];
      epoch_compute_[t] = 0;
      pending_[t].clear();
    }
    ++stats.epochs;
    stats.contention_cycles += epoch_stall;
    stats.makespan_cycles += epoch_max;
    return epoch_max;
  }

  const std::vector<std::uint64_t>& tile_stall_cycles() const {
    return tile_stall_;
  }
  const std::vector<std::uint64_t>& bank_busy_cycles() const {
    return bank_busy_;
  }

  multitile::ArbiterStats stats;

 private:
  struct Request {
    std::uint32_t bank = 0;
    std::uint32_t beats = 0;
  };

  multitile::ArbiterConfig config_;
  std::vector<std::vector<Request>> pending_;
  std::vector<std::uint64_t> epoch_compute_;
  std::uint32_t rr_ = 0;
  std::vector<std::uint64_t> tile_stall_;
  std::vector<std::uint64_t> bank_busy_;
};

TEST(Arbiter, EndEpochMatchesTheModuloScanReference) {
  // Random request streams, several epochs each (the round-robin
  // pointer carries across them), on tile counts that do and do not
  // divide the scan.  Short streams on few banks make ties common.
  for (const std::uint32_t tiles : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::uint32_t latency : {0u, 2u}) {
      for (const auto policy : {multitile::ArbitrationPolicy::RoundRobin,
                                multitile::ArbitrationPolicy::FixedPriority}) {
        const multitile::ArbiterConfig config{tiles, 4, policy, latency};
        multitile::Arbiter arbiter(config);
        ModuloScanArbiter reference(config);
        Rng rng(0xA5 + tiles * 16 + latency);
        for (int epoch = 0; epoch < 40; ++epoch) {
          const std::uint64_t requests = 1 + rng.uniform_u64(4 * tiles);
          for (std::uint64_t r = 0; r < requests; ++r) {
            const auto tile = static_cast<std::uint32_t>(rng.uniform_u64(tiles));
            const auto bank = static_cast<std::uint32_t>(rng.uniform_u64(4));
            const auto beats = static_cast<std::uint32_t>(rng.uniform_u64(4));
            arbiter.log_access(tile, bank, beats);
            reference.log_access(tile, bank, beats);
          }
          for (std::uint32_t t = 0; t < tiles; ++t) {
            const std::uint64_t cycles = rng.uniform_u64(8);
            arbiter.add_compute(t, cycles);
            reference.add_compute(t, cycles);
          }
          ASSERT_EQ(arbiter.end_epoch(), reference.end_epoch())
              << "tiles=" << tiles << " latency=" << latency
              << " epoch=" << epoch;
        }
        const std::string where =
            "tiles=" + std::to_string(tiles) +
            " latency=" + std::to_string(latency) + " policy=" +
            std::to_string(static_cast<int>(policy));
        EXPECT_EQ(arbiter.stats().requests, reference.stats.requests) << where;
        EXPECT_EQ(arbiter.stats().beats, reference.stats.beats) << where;
        EXPECT_EQ(arbiter.stats().contention_cycles,
                  reference.stats.contention_cycles)
            << where;
        EXPECT_EQ(arbiter.stats().makespan_cycles,
                  reference.stats.makespan_cycles)
            << where;
        EXPECT_EQ(arbiter.tile_stall_cycles(), reference.tile_stall_cycles())
            << where;
        EXPECT_EQ(arbiter.bank_busy_cycles(), reference.bank_busy_cycles())
            << where;
        if (tiles > 1) {
          EXPECT_GT(reference.stats.contention_cycles, 0u) << where;
        }
      }
    }
  }
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

TEST(TileLink, CountedReadMatchesAPerWordReference) {
  // Twin 4-tile / 4-bank platforms at 0.30 V with stochastic faults:
  // `counted` reads through TileLink::read_burst_counted, `reference`
  // word by word with read_word, logging each word's bank through the
  // map, and each uncorrectable word's remainder again.  Words with a
  // double-bit error are planted mid-range on both, so remainders are
  // re-requested whatever the draws do.
  for (const bool native : {true, false}) {
    NativeBurstGuard guard(native);
    const std::string where = native ? "native" : "per-word fallback";
    multitile::TiledPlatformConfig config;
    config.tile_schemes = {SchemeKind::Secded, SchemeKind::Ocean,
                           SchemeKind::Secded, SchemeKind::NoMitigation};
    config.banks = 4;
    config.vdd = Volt{0.30};
    config.seed = 23;
    multitile::TiledPlatform counted(config);
    multitile::TiledPlatform reference(config);
    const std::uint32_t words = counted.shared().word_count();

    std::vector<std::uint32_t> image(words);
    for (std::uint32_t w = 0; w < words; ++w) image[w] = w * 0x9E3779B9u;
    counted.shared().write_burst(0, image);
    for (std::uint32_t w = 0; w < words; ++w)
      reference.shared().write_word(w, image[w]);
    for (const std::uint32_t w : {5u, 40u, 41u, 300u, 520u, 700u, 1100u}) {
      for (multitile::TiledPlatform* p : {&counted, &reference}) {
        multitile::BankedMemory& banks = p->shared().banks();
        banks.write_raw(w, banks.read_raw(w) ^ 0b110ull);
      }
    }

    const auto reference_read = [&](std::uint32_t tile, std::uint32_t first,
                                    std::vector<std::uint32_t>& data,
                                    std::uint64_t& uncorrectable) {
      const std::uint32_t end = first + static_cast<std::uint32_t>(data.size());
      const auto log_from = [&](std::uint32_t word) {
        for (std::uint32_t w = word; w < end; ++w)
          reference.arbiter().log_access(
              tile, reference.shared().banks().map(w).bank, 1);
      };
      log_from(first);
      sim::AccessStatus status = sim::AccessStatus::Ok;
      uncorrectable = 0;
      for (std::uint32_t w = first; w < end; ++w) {
        const sim::AccessStatus s =
            reference.shared().read_word(w, data[w - first]);
        status = sim::worse_status(status, s);
        if (s != sim::AccessStatus::DetectedUncorrectable) continue;
        ++uncorrectable;
        log_from(w + 1);
      }
      return status;
    };

    // (tile, first word, length): inside one region, across a region
    // boundary, and across codec chunks and three regions.
    const struct {
      std::uint32_t tile, first, length;
    } reads[] = {{0, 0, 64},   {1, 3, 100},  {2, 490, 60},
                 {3, 280, 40}, {0, 100, 900}, {1, 512, 512},
                 {2, 1000, 200}, {3, 0, 2048}};
    std::uint64_t total_uncorrectable = 0;
    for (const auto& r : reads) {
      std::vector<std::uint32_t> got(r.length);
      std::vector<std::uint32_t> want(r.length);
      std::uint64_t got_bad = 0;
      std::uint64_t want_bad = 0;
      const sim::AccessStatus got_status =
          counted.link(r.tile).read_burst_counted(r.first, got, got_bad);
      const sim::AccessStatus want_status =
          reference_read(r.tile, r.first, want, want_bad);
      const std::string read = where + " first=" + std::to_string(r.first);
      EXPECT_EQ(got, want) << read;
      EXPECT_EQ(got_status, want_status) << read;
      EXPECT_EQ(got_bad, want_bad) << read;
      total_uncorrectable += want_bad;
      if (r.tile == 3) {
        counted.barrier();
        reference.barrier();
      }
    }
    counted.barrier();
    reference.barrier();
    EXPECT_GE(total_uncorrectable, 7u) << where;

    const multitile::Arbiter& a = counted.arbiter();
    const multitile::Arbiter& b = reference.arbiter();
    EXPECT_EQ(a.stats().requests, b.stats().requests) << where;
    EXPECT_EQ(a.stats().beats, b.stats().beats) << where;
    EXPECT_EQ(a.stats().contention_cycles, b.stats().contention_cycles)
        << where;
    EXPECT_GT(b.stats().contention_cycles, 0u) << where;
    EXPECT_EQ(a.bank_busy_cycles(), b.bank_busy_cycles()) << where;
    EXPECT_EQ(a.tile_stall_cycles(), b.tile_stall_cycles()) << where;
    for (std::size_t r = 0; r < counted.shared().region_count(); ++r) {
      EXPECT_EQ(counted.shared().region(r).stats.corrected_words,
                reference.shared().region(r).stats.corrected_words)
          << where << " region " << r;
      EXPECT_EQ(counted.shared().region(r).stats.uncorrectable_words,
                reference.shared().region(r).stats.uncorrectable_words)
          << where << " region " << r;
    }
    for (std::uint32_t bank = 0; bank < counted.bank_count(); ++bank)
      expect_same_stats(counted.shared().banks().bank(bank).stats(),
                        reference.shared().banks().bank(bank).stats(),
                        where + " bank " + std::to_string(bank));
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
