// OCEAN's error-protected checkpoint buffer.
//
// Phase output chunks are copied into the protected memory (PM), whose
// words carry the BCH(t=4) code: reads back through the codec correct
// up to quadruple bit errors, so only a quintuple error in one word can
// defeat a restore — the paper's OCEAN failure threshold.
//
// The buffer is organised as two ping-pong slots: checkpoint N is
// written (and validated while copying) into the idle slot, and only
// once the copy is known error-free does it become current.  That way
// the previous checkpoint survives until the new one commits, which is
// what makes producer-phase re-execution possible for in-place tasks.
#pragma once

#include <cstdint>

#include "sim/ecc_memory.hpp"
#include "workloads/streaming.hpp"

namespace ntc::ocean {

struct RestoreResult {
  std::uint64_t words_restored = 0;
  std::uint64_t uncorrectable_words = 0;  ///< quintuple-error casualties
  bool ok() const { return uncorrectable_words == 0; }
};

class ProtectedBuffer {
 public:
  /// `pm` must be an OCEAN protected memory (BCH-coded EccMemory).
  explicit ProtectedBuffer(sim::EccMemory& pm);

  /// Capacity of one checkpoint slot (half the PM).
  std::uint32_t slot_capacity_words() const { return pm_.word_count() / 2; }

  struct SaveResult {
    std::uint32_t crc = 0;
    /// Words whose scratchpad read-back was detected-uncorrectable at
    /// save time: the chunk is NOT error-free and the producer phase
    /// must be re-executed (the paper: "each phase generates a chunk of
    /// data that is required ... to be error-free").
    std::uint64_t uncorrectable_words = 0;
    bool clean() const { return uncorrectable_words == 0; }
  };

  /// Copy `chunk` from the scratchpad into the idle slot, computing the
  /// CRC-32 signature of the copied data and validating while copying.
  /// Does NOT commit; call commit() when the save is acceptable.
  /// Requires chunk.words <= slot_capacity_words().
  SaveResult save_with_crc(sim::MemoryPort& spm, workloads::ChunkRef chunk);

  /// Promote the last save to be the current checkpoint.
  void commit() { current_slot_ ^= 1u; }

  /// Copy the *current* checkpoint back over `chunk` in the scratchpad.
  RestoreResult restore(sim::MemoryPort& spm, workloads::ChunkRef chunk);

  /// DMA cycle cost of a save/restore pass (2 cycles per word: one read
  /// beat, one write beat).
  static std::uint64_t copy_cycles(workloads::ChunkRef chunk) {
    return 2ull * chunk.words;
  }

 private:
  std::uint32_t slot_base(std::uint32_t slot) const {
    return slot * slot_capacity_words();
  }

  sim::EccMemory& pm_;
  std::uint32_t current_slot_ = 0;  ///< idle slot is current_slot_ ^ 1
};

}  // namespace ntc::ocean
