// Block-code wrapper around an SRAM array: the "digital wrapper around
// existing commercially available memories" of the paper's abstract.
//
// Writes encode the 32-bit data word into the code's codeword; reads
// decode and transparently correct.  Correction/detection counters are
// exposed for the monitor, and a scrub() pass rewrites every word
// through the codec so accumulated soft/stuck errors cannot pile up
// beyond the code's correction capability.
#pragma once

#include <memory>

#include "ecc/code.hpp"
#include "sim/memory_port.hpp"
#include "sim/sram_module.hpp"

namespace ntc::sim {

struct EccMemoryStats {
  std::uint64_t corrected_words = 0;
  std::uint64_t corrected_bits = 0;
  std::uint64_t uncorrectable_words = 0;
  std::uint64_t scrub_passes = 0;
};

class EccMemory final : public MemoryPort {
 public:
  /// Observer for the logical access stream.  The batched campaign
  /// engine installs one on a fault-free platform to capture the golden
  /// transaction trace (array, direction, word range, decoded data) a
  /// workload generates; replaying that trace against per-trial fault
  /// state is what lets trials skip the full platform pipeline.  The
  /// sink sees each public transaction once (a native burst as one
  /// call, the word-at-a-time fallback as per-word calls — the same
  /// flat word sequence either way) and is never invoked when null.
  struct TraceSink {
    virtual ~TraceSink() = default;
    virtual void on_access(bool is_write, std::uint32_t base,
                           const std::uint32_t* data, std::uint32_t count) = 0;
  };

  /// `code` may be null for an unprotected (no-mitigation) memory; the
  /// array must then store exactly 32 bits per word.
  EccMemory(std::unique_ptr<SramModule> array,
            std::shared_ptr<const ecc::BlockCode> code);

  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  AccessStatus read_word(std::uint32_t word_index, std::uint32_t& data) override;
  AccessStatus write_word(std::uint32_t word_index, std::uint32_t data) override;
  std::uint32_t word_count() const override { return array_->words(); }

  /// Native bursts: raw-burst the array, then batch-decode/encode over
  /// the code's lane kernels.  Bit-identical to the word-at-a-time
  /// fallback (raw access draws are per-word in order; decode consumes
  /// no RNG, so decode-after-raw-burst reordering is unobservable).
  AccessStatus read_burst(std::uint32_t word_index,
                          std::span<std::uint32_t> data) override;
  AccessStatus write_burst(std::uint32_t word_index,
                           std::span<const std::uint32_t> data) override;

  /// Native counted burst: one read_burst, counted as the change in
  /// stats().uncorrectable_words.
  AccessStatus read_burst_counted(std::uint32_t word_index,
                                  std::span<std::uint32_t> data,
                                  std::uint64_t& uncorrectable) override;

  /// Rewrite every word through the codec (corrects what is
  /// correctable).  Uncorrectable words are counted but left untouched:
  /// their raw bits stay available for recovery at a healthier
  /// operating point instead of being laundered into a valid codeword
  /// of wrong data.  Returns the number of uncorrectable words met.
  std::uint64_t scrub();

  SramModule& array() { return *array_; }
  const SramModule& array() const { return *array_; }
  const ecc::BlockCode* code() const { return code_.get(); }
  const EccMemoryStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EccMemoryStats{}; }

 private:
  /// Fold a chunk's batch-decode summary into the stats and return the
  /// worst status the chunk saw (sums are order-insensitive, so this is
  /// bit-identical to folding every word in turn).
  AccessStatus note_summary(const ecc::BatchDecodeSummary& summary);

  std::unique_ptr<SramModule> array_;
  std::shared_ptr<const ecc::BlockCode> code_;
  EccMemoryStats stats_;
  TraceSink* trace_sink_ = nullptr;
};

/// Pack the low `bits` of a Bits codeword into a uint64 (and back) for
/// storage in the SRAM array.
std::uint64_t pack_codeword(const ecc::Bits& code, std::size_t bits);
ecc::Bits unpack_codeword(std::uint64_t raw, std::size_t bits);

}  // namespace ntc::sim
