// Unit tests for the burst-transaction pipeline: native bursts at every
// layer (SramModule raw bursts, EccMemory batch codec and counted
// bursts, NtcMemory scrub chunking, AdaptiveNtcMemory recovery, Bus
// boundary splitting) must be observably identical to the word-at-a-time
// decomposition — same data, same counters, same fault-model RNG
// consumption.  The process-wide set_burst_native_enabled switch routes
// the identical call sequence through the base-class fallback for the
// comparison arm.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_memory.hpp"
#include "core/ntc_memory.hpp"
#include "ecc/hamming.hpp"
#include "faultsim/scenario.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/bus.hpp"
#include "sim/ecc_memory.hpp"
#include "sim/sram_module.hpp"

namespace ntc {
namespace {

/// Scoped native-burst switch; restores the default (native) on exit.
struct NativeBurstGuard {
  explicit NativeBurstGuard(bool native) { sim::set_burst_native_enabled(native); }
  ~NativeBurstGuard() { sim::set_burst_native_enabled(true); }
};

sim::SramModule make_sram(Volt vdd, bool inject, std::uint64_t seed,
                          std::uint32_t words = 64,
                          std::uint32_t stored_bits = 39) {
  return sim::SramModule("test", words, stored_bits,
                         reliability::cell_based_40nm_access(),
                         reliability::cell_based_40nm_retention(), vdd,
                         Rng(seed), inject);
}

void expect_same_stats(const sim::SramStats& a, const sim::SramStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.injected_read_flips, b.injected_read_flips);
  EXPECT_EQ(a.injected_write_flips, b.injected_write_flips);
  EXPECT_EQ(a.stuck_bits, b.stuck_bits);
}

void expect_same_ecc_stats(const sim::EccMemoryStats& a,
                           const sim::EccMemoryStats& b) {
  EXPECT_EQ(a.corrected_words, b.corrected_words);
  EXPECT_EQ(a.corrected_bits, b.corrected_bits);
  EXPECT_EQ(a.uncorrectable_words, b.uncorrectable_words);
  EXPECT_EQ(a.scrub_passes, b.scrub_passes);
}

/// Two scripted injectors for the raw-burst equivalence.  The first
/// holds every flip-event kind: a transient armed at access 75, which
/// is word 10's read in the first read burst of MatchesPerWordLoop, two
/// events on word 20, and, when `windowed`, a stuck event open only for
/// accesses [70, 150), which puts the stuck overlay on the access
/// counter.  The second flips word 20 too, so the chain's masks must be
/// XORed before their bits are counted, and reaches word 60, so the two
/// flip spans differ.
std::vector<std::shared_ptr<faultsim::ScenarioInjector>> attach_burst_script(
    sim::SramModule& sram, bool windowed) {
  using faultsim::FaultEvent;
  std::vector<FaultEvent> first = {
      FaultEvent::read_burst(3, 4, 3),
      FaultEvent::read_burst(20, 0, 3),
      FaultEvent::transient_flip(20, 0b110),
      FaultEvent::transient_flip(10, 0b1, /*at_access=*/75),
      FaultEvent::write_burst(40, 0x3),
      FaultEvent::write_burst(41, 0x5, /*once=*/true),
      FaultEvent::stuck_at(9, 0x7, 0x5)};
  if (windowed) {
    FaultEvent stuck = FaultEvent::stuck_at(30, 0xF0, 0xA0);
    stuck.arm_at_access = 70;
    stuck.disarm_at_access = 150;
    first.push_back(stuck);
  }
  const std::vector<FaultEvent> second = {FaultEvent::read_burst(20, 1, 2),
                                          FaultEvent::read_burst(60, 0, 1)};
  std::vector<std::shared_ptr<faultsim::ScenarioInjector>> chain;
  for (const auto& script : {first, second}) {
    chain.push_back(std::make_shared<faultsim::ScenarioInjector>(script));
    sram.attach_injector(chain.back());
  }
  return chain;
}

TEST(SramRawBurst, MatchesPerWordLoop) {
  // Same seed, same access sequence: `burst` uses the raw burst entry
  // points, `scalar` the per-word ones.  At 0.42 V the stochastic draw
  // stream is live, so a single skipped or reordered draw diverges; at
  // 0.22 V it flips a few percent of the accesses and sticks a fifth of
  // the cells, so its flips also land on scripted words.  The chain is
  // the stochastic model alone, then with the scripted injectors above:
  // bursts cover, straddle and miss their flip spans, with the stuck
  // overlay cached (scripted bursts take the bulk path) and windowed
  // (reads walk the chain per word).
  enum class Chain { Stochastic, Scripted, ScriptedWindowed };
  struct Step {
    bool write;
    std::uint32_t first, count;
  };
  const Step steps[] = {{true, 0, 64},  {false, 0, 64}, {true, 16, 32},
                        {false, 8, 32}, {false, 0, 64}, {false, 44, 12}};
  for (const double v : {0.60, 0.42, 0.22}) {
    for (const Chain chain :
         {Chain::Stochastic, Chain::Scripted, Chain::ScriptedWindowed}) {
      sim::SramModule burst = make_sram(Volt{v}, /*inject=*/true, 42);
      sim::SramModule scalar = make_sram(Volt{v}, /*inject=*/true, 42);
      std::vector<std::shared_ptr<faultsim::ScenarioInjector>> burst_chain,
          scalar_chain;
      if (chain != Chain::Stochastic) {
        const bool windowed = chain == Chain::ScriptedWindowed;
        burst_chain = attach_burst_script(burst, windowed);
        scalar_chain = attach_burst_script(scalar, windowed);
      }

      std::uint64_t pattern = 0x9E3779B97F4A7C15ull;
      for (const Step& step : steps) {
        const std::string where =
            "v=" + std::to_string(v) + " chain=" +
            std::to_string(static_cast<int>(chain)) +
            " step at " + std::to_string(step.first);
        std::vector<std::uint64_t> words(step.count);
        if (step.write) {
          for (auto& value : words) {
            value = pattern & ((1ull << 39) - 1);
            pattern = pattern * 2862933555777941757ull + 3037000493ull;
          }
          burst.write_raw_burst(step.first, words.data(), step.count);
          for (std::uint32_t i = 0; i < step.count; ++i)
            scalar.write_raw(step.first + i, words[i]);
        } else {
          burst.read_raw_burst(step.first, words.data(), step.count);
          for (std::uint32_t i = 0; i < step.count; ++i)
            EXPECT_EQ(words[i], scalar.read_raw(step.first + i))
                << where << " w=" << step.first + i;
        }
        EXPECT_EQ(burst.raw_words(), scalar.raw_words()) << where;
        expect_same_stats(burst.stats(), scalar.stats());
        for (std::size_t k = 0; k < burst_chain.size(); ++k)
          EXPECT_EQ(burst_chain[k]->events_fired(),
                    scalar_chain[k]->events_fired())
              << where << " injector " << k;
      }
      if (chain != Chain::Stochastic) {
        // Every scripted event fired where the script says it would.
        EXPECT_EQ(burst_chain[0]->events_fired(), 10u);
        EXPECT_EQ(burst_chain[1]->events_fired(), 5u);
      } else if (v < 0.3) {
        EXPECT_GT(burst.stats().injected_read_flips +
                      burst.stats().injected_write_flips,
                  5u);
      }
    }
  }
}

TEST(EccBurst, MatchesWordFallbackUnderFaults) {
  // Native bursts (batch codec + raw bursts) versus the identical call
  // sequence routed through the word-at-a-time fallback.
  for (const double v : {0.60, 0.42}) {
    auto code = std::make_shared<ecc::HammingSecded>(32);
    sim::EccMemory native(std::make_unique<sim::SramModule>(make_sram(
                              Volt{v}, /*inject=*/true, 11)),
                          code);
    sim::EccMemory fallback(std::make_unique<sim::SramModule>(make_sram(
                                Volt{v}, /*inject=*/true, 11)),
                            code);

    std::vector<std::uint32_t> data(native.word_count());
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint32_t>(i * 2654435761u);
    std::vector<std::uint32_t> got_native(data.size());
    std::vector<std::uint32_t> got_fallback(data.size());

    sim::AccessStatus ws_native, ws_fallback, rs_native, rs_fallback;
    {
      NativeBurstGuard guard(true);
      ws_native = native.write_burst(0, data);
      rs_native = native.read_burst(0, got_native);
    }
    {
      NativeBurstGuard guard(false);
      ws_fallback = fallback.write_burst(0, data);
      rs_fallback = fallback.read_burst(0, got_fallback);
    }
    EXPECT_EQ(ws_native, ws_fallback) << "v=" << v;
    EXPECT_EQ(rs_native, rs_fallback) << "v=" << v;
    EXPECT_EQ(got_native, got_fallback) << "v=" << v;
    EXPECT_EQ(native.array().raw_words(), fallback.array().raw_words());
    expect_same_stats(native.array().stats(), fallback.array().stats());
    expect_same_ecc_stats(native.stats(), fallback.stats());
  }
}

struct CountedRead {
  std::vector<std::uint32_t> data;
  sim::AccessStatus status = sim::AccessStatus::Ok;
  std::uint64_t uncorrectable = 0;
  sim::EccMemoryStats ecc_stats;
  sim::SramStats array_stats;
};

/// Native burst, word-at-a-time fallback, or the MemoryPort default.
enum class CountedPath { Native, Fallback, PortDefault };

/// One counted burst over words [0, 16) of a fault-free SECDED memory
/// with double-bit-corrupted codewords (the detect-only case) at words
/// 5 and 11.  `scripted` attaches a scenario injector that flips one
/// bit of word 9 on its first read.
CountedRead counted_read_of_two_bad_words(CountedPath path, bool scripted) {
  NativeBurstGuard guard(path != CountedPath::Fallback);
  sim::EccMemory memory(std::make_unique<sim::SramModule>(make_sram(
                            Volt{0.60}, /*inject=*/false, 1)),
                        std::make_shared<ecc::HammingSecded>(32));
  if (scripted)
    memory.array().attach_injector(std::make_shared<faultsim::ScenarioInjector>(
        std::vector<faultsim::FaultEvent>{
            faultsim::FaultEvent::transient_flip(9, 0b1)}));
  for (std::uint32_t w = 0; w < memory.word_count(); ++w)
    memory.write_word(w, w * 0x01010101u);
  for (const std::uint32_t w : {5u, 11u})
    memory.array().write_raw(w, memory.array().raw_words()[w] ^ 0b110ull);

  CountedRead read;
  read.data.assign(16, 0xFFFFFFFFu);
  read.status =
      path == CountedPath::PortDefault
          ? memory.sim::MemoryPort::read_burst_counted(0, read.data,
                                                       read.uncorrectable)
          : memory.read_burst_counted(0, read.data, read.uncorrectable);
  read.ecc_stats = memory.stats();
  read.array_stats = memory.array().stats();
  return read;
}

TEST(EccBurstCounted, CountsEveryUncorrectableWord) {
  // The counted burst reads all 16 words, counts both bad ones, and
  // leaves every other word intact; the native burst matches the
  // word-at-a-time fallback and the MemoryPort default, also with a
  // scripted injector in the chain.
  for (const bool scripted : {false, true}) {
    const CountedRead native =
        counted_read_of_two_bad_words(CountedPath::Native, scripted);
    EXPECT_EQ(native.uncorrectable, 2u) << "scripted=" << scripted;
    EXPECT_EQ(native.ecc_stats.uncorrectable_words, 2u);
    EXPECT_EQ(native.ecc_stats.corrected_words, scripted ? 1u : 0u);
    EXPECT_EQ(native.status, sim::AccessStatus::DetectedUncorrectable);
    for (std::uint32_t w = 0; w < 16; ++w) {
      if (w != 5 && w != 11) {
        EXPECT_EQ(native.data[w], w * 0x01010101u) << "w=" << w;
      }
    }

    for (const CountedPath path :
         {CountedPath::Fallback, CountedPath::PortDefault}) {
      const CountedRead other = counted_read_of_two_bad_words(path, scripted);
      EXPECT_EQ(native.uncorrectable, other.uncorrectable);
      EXPECT_EQ(native.status, other.status);
      EXPECT_EQ(native.data, other.data);
      expect_same_stats(native.array_stats, other.array_stats);
      expect_same_ecc_stats(native.ecc_stats, other.ecc_stats);
    }
  }
}

TEST(NtcBurst, ScrubChunkingMatchesPerWordCadence) {
  // A scrub interval far smaller than the burst: the native path must
  // scrub at exactly the word positions the per-word loop would.
  core::NtcMemoryConfig config;
  config.bytes = 256;  // 64 words
  config.scheme = mitigation::SchemeKind::Secded;
  config.vdd = Volt{0.42};
  config.scrub_interval_accesses = 10;
  config.seed = 5;
  core::NtcMemory native(config);
  core::NtcMemory fallback(config);

  std::vector<std::uint32_t> data(native.word_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(i) * 0x9E3779B9u;
  std::vector<std::uint32_t> got_native(data.size());
  std::vector<std::uint32_t> got_fallback(data.size());
  {
    NativeBurstGuard guard(true);
    native.write_burst(0, data);
    native.read_burst(0, got_native);
    native.read_burst(0, got_native);
  }
  {
    NativeBurstGuard guard(false);
    fallback.write_burst(0, data);
    fallback.read_burst(0, got_fallback);
    fallback.read_burst(0, got_fallback);
  }
  EXPECT_GT(native.scrubs_performed(), 0u);
  EXPECT_EQ(native.scrubs_performed(), fallback.scrubs_performed());
  EXPECT_EQ(got_native, got_fallback);
  EXPECT_EQ(native.ecc().array().raw_words(),
            fallback.ecc().array().raw_words());
  expect_same_stats(native.array_stats(), fallback.array_stats());
  expect_same_ecc_stats(native.ecc_stats(), fallback.ecc_stats());
}

TEST(AdaptiveBurst, RecoveryEscalationMatchesPerWordPath) {
  // Deep-NTV reads with recovery on: a burst read must enter the
  // retry/scrub/bump escalation at the same access positions as an
  // explicit loop of read_word calls on a second instance, and leave
  // the same data, rail and counters.
  core::AdaptiveConfig config;
  config.memory.bytes = 256;
  config.memory.scheme = mitigation::SchemeKind::Secded;
  config.memory.vdd = Volt{0.24};
  config.memory.scrub_interval_accesses = 0;
  config.memory.seed = 9;
  core::AdaptiveNtcMemory burst(config);
  core::AdaptiveNtcMemory per_word(config);

  std::vector<std::uint32_t> data(burst.word_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(i) * 0x85EBCA6Bu;
  // Write half: the native burst against the word-at-a-time fallback.
  {
    NativeBurstGuard guard(true);
    burst.write_burst(0, data);
  }
  {
    NativeBurstGuard guard(false);
    per_word.write_burst(0, data);
  }
  // Read half: read_burst against read_word, one word at a time.
  std::vector<std::uint32_t> got_burst(data.size());
  std::vector<std::uint32_t> got_per_word(data.size());
  for (int sweep = 0; sweep < 20; ++sweep) {
    burst.read_burst(0, got_burst);
    for (std::uint32_t w = 0; w < got_per_word.size(); ++w)
      per_word.read_word(w, got_per_word[w]);
  }
  EXPECT_EQ(got_burst, got_per_word);
  EXPECT_EQ(burst.vdd().value, per_word.vdd().value);
  const core::RecoveryStats& a = burst.recovery_stats();
  const core::RecoveryStats& b = per_word.recovery_stats();
  // Every rung is exercised: retries, a scrub and a rail bump.
  EXPECT_GT(a.retry_recoveries, 0u);
  EXPECT_GT(a.scrub_retries, 0u);
  EXPECT_GT(a.bump_recoveries, 0u);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.retry_recoveries, b.retry_recoveries);
  EXPECT_EQ(a.scrub_retries, b.scrub_retries);
  EXPECT_EQ(a.scrub_recoveries, b.scrub_recoveries);
  EXPECT_EQ(a.voltage_bumps, b.voltage_bumps);
  EXPECT_EQ(a.bump_recoveries, b.bump_recoveries);
  EXPECT_EQ(a.unrecovered_reads, b.unrecovered_reads);
  expect_same_stats(burst.memory().array_stats(),
                    per_word.memory().array_stats());
  expect_same_ecc_stats(burst.memory().ecc_stats(),
                        per_word.memory().ecc_stats());
}

class BusBurstTest : public ::testing::Test {
 protected:
  BusBurstTest()
      : low_(std::make_unique<sim::SramModule>(
            make_sram(Volt{0.60}, /*inject=*/false, 1, 16, 32)),
            nullptr),
        high_(std::make_unique<sim::SramModule>(
            make_sram(Volt{0.60}, /*inject=*/false, 2, 16, 32)),
            nullptr),
        bus_(/*wait_states=*/1) {
    // [0, 16) mapped, [16, 32) unmapped gap, [32, 48) mapped.
    bus_.map("low", 0, &low_);
    bus_.map("high", 32, &high_);
  }

  sim::EccMemory low_;
  sim::EccMemory high_;
  sim::Bus bus_;
};

TEST_F(BusBurstTest, BurstStraddlingRegionsIsSplitDeterministically) {
  // 40-word burst from 8: 8 words into `low`, a 16-word unmapped gap
  // (error-responded per word), 16 words into `high`.
  std::vector<std::uint32_t> data(40);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 0xA0000000u + static_cast<std::uint32_t>(i);
  EXPECT_EQ(bus_.write_burst(8, data),
            sim::AccessStatus::DetectedUncorrectable);
  EXPECT_EQ(bus_.regions()[0].writes, 8u);
  EXPECT_EQ(bus_.regions()[1].writes, 16u);
  EXPECT_EQ(bus_.decode_errors(), 16u);
  EXPECT_EQ(bus_.cycles_consumed(), 40u * 2u);  // 1 + wait_state per word

  std::vector<std::uint32_t> got(40, 0xFFFFFFFFu);
  EXPECT_EQ(bus_.read_burst(8, got), sim::AccessStatus::DetectedUncorrectable);
  EXPECT_EQ(bus_.decode_errors(), 32u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::uint32_t word = 8 + static_cast<std::uint32_t>(i);
    if (word >= 16 && word < 32) {
      EXPECT_EQ(got[i], 0u) << "gap word " << word;  // error response
    } else {
      EXPECT_EQ(got[i], data[i]) << "word " << word;
    }
  }

  // The fallback decomposition produces the same counters and data.
  sim::EccMemory low2(std::make_unique<sim::SramModule>(
                          make_sram(Volt{0.60}, false, 1, 16, 32)),
                      nullptr);
  sim::EccMemory high2(std::make_unique<sim::SramModule>(
                           make_sram(Volt{0.60}, false, 2, 16, 32)),
                       nullptr);
  sim::Bus bus2(1);
  bus2.map("low", 0, &low2);
  bus2.map("high", 32, &high2);
  std::vector<std::uint32_t> got2(40, 0xFFFFFFFFu);
  {
    NativeBurstGuard guard(false);
    EXPECT_EQ(bus2.write_burst(8, data),
              sim::AccessStatus::DetectedUncorrectable);
    EXPECT_EQ(bus2.read_burst(8, got2),
              sim::AccessStatus::DetectedUncorrectable);
  }
  EXPECT_EQ(got2, got);
  EXPECT_EQ(bus2.cycles_consumed(), bus_.cycles_consumed());
  EXPECT_EQ(bus2.decode_errors(), bus_.decode_errors());
  EXPECT_EQ(bus2.regions()[0].reads, bus_.regions()[0].reads);
  EXPECT_EQ(bus2.regions()[1].reads, bus_.regions()[1].reads);
  EXPECT_EQ(bus2.regions()[0].writes, bus_.regions()[0].writes);
  EXPECT_EQ(bus2.regions()[1].writes, bus_.regions()[1].writes);
}

TEST_F(BusBurstTest, BurstBeyondAddressSpaceIsRejectedNotWrapped) {
  std::vector<std::uint32_t> data(4, 0);
  EXPECT_DEATH(bus_.read_burst(0xFFFFFFFEu, data), "32-bit");
  EXPECT_DEATH(bus_.write_burst(0xFFFFFFFEu, data), "32-bit");
}

TEST_F(BusBurstTest, BurstEntirelyInGapErrorRespondsEveryWord) {
  std::vector<std::uint32_t> got(8, 0xFFFFFFFFu);
  EXPECT_EQ(bus_.read_burst(20, got), sim::AccessStatus::DetectedUncorrectable);
  EXPECT_EQ(bus_.decode_errors(), 8u);
  for (const std::uint32_t word : got) EXPECT_EQ(word, 0u);
}

}  // namespace
}  // namespace ntc
