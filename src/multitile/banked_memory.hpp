// Banked near-threshold SRAM: one logical word space striped over M
// independent SramModule banks.
//
// The bank map is a skewed word/line interleave.  With M = 2^s banks
// and an interleave granularity of g words (g = 1 is word interleave,
// g = 4 a 16-byte line), logical word w lives at
//
//   block  = w / g
//   bank   = fold(block) & (M - 1)        fold(x) = x ^ (x>>s) ^ (x>>2s) ^ …
//   offset = (block / M) * g + w % g
//
// The XOR fold skews the classic round-robin stripe so power-of-two
// strides — the natural access pattern of an FFT — do not all land in
// one bank.  The map is bijective (block = q·M + r maps to bank
// r ^ (fold(q) & (M-1)) at line q, and r is recoverable from the bank
// and q), and M = 1 degenerates to the identity, which is what makes a
// 1-bank shared memory byte-identical to the classic flat scratchpad.
//
// Raw bursts issue one SramModule burst per bank they touch.  Line q
// (M·g words) gives every bank exactly the offsets [q·g, (q+1)·g), so
// the words of any logical range that fall in one bank hold
// consecutive offsets, in ascending logical order: the per-word walk
// visits each bank as one ascending, contiguous run.  Banks share no
// fault state (each has its own stream, counters and injector chain),
// so only the order within a bank is observable, and a burst per bank
// replays the walk exactly.
//
// Bank b draws the scratchpad stream of the salt map in
// sim/fault_draw.hpp with index b, so bank 0 draws exactly the classic
// single-scratchpad stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "energy/memory_calculator.hpp"
#include "sim/sram_module.hpp"

namespace ntc::reliability {
class ModelTableCache;
}

namespace ntc::multitile {

struct BankAddress {
  std::uint32_t bank = 0;
  std::uint32_t offset = 0;
};

struct BankedMemoryConfig {
  std::uint32_t total_words = 2048;
  std::uint32_t banks = 1;             ///< power of two
  std::uint32_t interleave_words = 1;  ///< stripe granularity g (>= 1)
  std::uint32_t stored_bits = 32;      ///< 39 when any region carries SECDED
  energy::MemoryStyle style = energy::MemoryStyle::CellBasedImec40;
  Volt vdd{0.55};
  std::uint64_t seed = 1;
  bool inject_faults = true;
  std::shared_ptr<reliability::ModelTableCache> tables;
};

class BankedMemory {
 public:
  explicit BankedMemory(BankedMemoryConfig config);

  std::uint32_t words() const { return config_.total_words; }
  std::uint32_t bank_count() const { return config_.banks; }
  std::uint32_t words_per_bank() const {
    return config_.total_words / config_.banks;
  }

  /// The skewed-interleave bank map (identity at one bank).
  BankAddress map(std::uint32_t word) const;
  /// map(word).bank, read from a table built at construction.
  std::uint32_t bank_of(std::uint32_t word) const { return bank_of_[word]; }

  /// Raw codeword access through the map (fault injection applies).
  std::uint64_t read_raw(std::uint32_t word);
  void write_raw(std::uint32_t word, std::uint64_t value);

  /// Raw burst over logical words [word, word + count): one bank burst
  /// per bank and staging chunk, observably identical to `count`
  /// read_raw/write_raw calls in ascending order (same per-bank draws,
  /// counters and scripted events).  Out-of-range bursts are rejected.
  void read_raw_burst(std::uint32_t word, std::uint64_t* out,
                      std::uint32_t count);
  void write_raw_burst(std::uint32_t word, const std::uint64_t* values,
                       std::uint32_t count);

  sim::SramModule& bank(std::uint32_t b) { return *banks_[b]; }
  const sim::SramModule& bank(std::uint32_t b) const { return *banks_[b]; }

  /// Reseed every bank exactly as construction would (salt per bank).
  void reset(std::uint64_t seed, Volt vdd);
  void set_vdd(Volt vdd);
  void reset_stats();

 private:
  /// One bank's share of a staged range: its first offset, its word
  /// count and where its words start in the staging buffer.
  struct BankRun {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t start = 0;
  };
  /// Fill runs_ for logical words [word, word + count) and list the
  /// banks they touch in touched_, so a burst costs its words, not the
  /// bank count.
  void plan_runs(std::uint32_t word, std::uint32_t count);

  BankedMemoryConfig config_;
  std::uint32_t shift_ = 0;  ///< log2(banks)
  std::vector<std::unique_ptr<sim::SramModule>> banks_;
  std::vector<std::uint32_t> bank_of_;  ///< per logical word
  std::vector<BankRun> runs_;          ///< per bank, scratch of the bursts
  std::vector<std::uint32_t> touched_;  ///< banks with a run, first touch first
};

}  // namespace ntc::multitile
