// Shared banked scratchpad with per-region mitigation.
//
// The logical word space splits into equal contiguous regions, one per
// tile; a region is encoded with its owning tile's scheme (None stores
// raw 32-bit words, SECDED and OCEAN store (39,32) codewords — OCEAN's
// scratchpad keeps the ECC module exactly as the classic platform
// does).  The protection domain follows the ADDRESS, not the accessor:
// any tile reading a SECDED region decodes codewords, so cross-region
// traffic (the sharded FFT's gather phases) is always well-formed.
// Banks store max(region codeword widths) bits; codeless regions mask
// reads back to 32 bits.
//
// Determinism contract (mirrors sim::EccMemory): native bursts are
// observably identical to the word-at-a-time fallback — bursts split at
// region boundaries, every bank sees its words in ascending order (one
// BankedMemory raw burst per codec chunk, which issues one ascending
// run per bank), and decode consumes no RNG.  Banks share no fault
// state, so the order across banks is free.  A 1-tile / 1-bank
// SharedMemory is therefore byte-identical in data, counters and RNG
// consumption to the classic EccMemory scratchpad.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ecc/code.hpp"
#include "mitigation/scheme.hpp"
#include "multitile/banked_memory.hpp"
#include "sim/ecc_memory.hpp"
#include "sim/memory_port.hpp"

namespace ntc::multitile {

struct SharedRegion {
  std::uint32_t base = 0;
  std::uint32_t words = 0;
  mitigation::SchemeKind scheme = mitigation::SchemeKind::NoMitigation;
  std::shared_ptr<const ecc::BlockCode> code;  ///< null for NoMitigation
  sim::EccMemoryStats stats;
};

class SharedMemory final : public sim::MemoryPort {
 public:
  /// One equal-sized region per entry of `region_schemes` (the banked
  /// word count must divide evenly).  `bank_config.stored_bits` must
  /// accommodate the widest region codeword.
  SharedMemory(BankedMemoryConfig bank_config,
               std::vector<mitigation::SchemeKind> region_schemes);

  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override;
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override;
  std::uint32_t word_count() const override { return banked_.words(); }
  sim::AccessStatus read_burst(std::uint32_t word_index,
                               std::span<std::uint32_t> data) override;
  sim::AccessStatus write_burst(std::uint32_t word_index,
                                std::span<const std::uint32_t> data) override;
  /// read_burst that also lists, ascending, the burst offsets of the
  /// words that decoded as DetectedUncorrectable (cleared first).  With
  /// native bursts disabled it reads word by word.
  sim::AccessStatus read_burst_located(
      std::uint32_t word_index, std::span<std::uint32_t> data,
      std::vector<std::uint32_t>& uncorrectable_at);

  BankedMemory& banks() { return banked_; }
  const BankedMemory& banks() const { return banked_; }

  std::size_t region_count() const { return regions_.size(); }
  const SharedRegion& region(std::size_t r) const { return regions_[r]; }
  std::uint32_t region_words() const { return region_words_; }
  std::uint32_t region_of(std::uint32_t word) const {
    return word / region_words_;
  }

  /// Reseed the banks as construction would and zero region stats.
  void reset(std::uint64_t seed, Volt vdd);
  void set_vdd(Volt vdd) { banked_.set_vdd(vdd); }
  void reset_stats();

  /// Codeword width the banks must store for a scheme mix (39 when any
  /// region is protected, else 32).
  static std::uint32_t required_stored_bits(
      const std::vector<mitigation::SchemeKind>& schemes);

 private:
  sim::AccessStatus note_summary(SharedRegion& region,
                                 const ecc::BatchDecodeSummary& summary);
  /// The native read_burst; appends uncorrectable burst offsets when
  /// `uncorrectable_at` is given.
  sim::AccessStatus native_read_burst(
      std::uint32_t word_index, std::span<std::uint32_t> data,
      std::vector<std::uint32_t>* uncorrectable_at);
  /// One region's share of a read burst; `at_base` is the burst offset
  /// of `word`.
  sim::AccessStatus burst_read_region(
      SharedRegion& region, std::uint32_t word, std::uint32_t count,
      std::uint32_t* out, std::vector<std::uint32_t>* uncorrectable_at,
      std::uint32_t at_base);
  void burst_write_region(SharedRegion& region, std::uint32_t word,
                          std::uint32_t count, const std::uint32_t* data);

  BankedMemory banked_;
  std::uint32_t region_words_ = 0;
  std::vector<SharedRegion> regions_;
};

}  // namespace ntc::multitile
