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

  /// Raw codeword access through the map (fault injection applies).
  std::uint64_t read_raw(std::uint32_t word);
  void write_raw(std::uint32_t word, std::uint64_t value);

  sim::SramModule& bank(std::uint32_t b) { return *banks_[b]; }
  const sim::SramModule& bank(std::uint32_t b) const { return *banks_[b]; }

  /// Reseed every bank exactly as construction would (salt per bank).
  void reset(std::uint64_t seed, Volt vdd);
  void set_vdd(Volt vdd);
  void reset_stats();

 private:
  BankedMemoryConfig config_;
  std::uint32_t shift_ = 0;  ///< log2(banks)
  std::vector<std::unique_ptr<sim::SramModule>> banks_;
};

}  // namespace ntc::multitile
