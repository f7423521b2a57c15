// Common interface of the block codes used as memory-protection
// wrappers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ecc/bits.hpp"

namespace ntc::ecc {

/// What the decoder concluded about a retrieved codeword.
enum class DecodeStatus {
  Ok,                      ///< clean codeword, no correction applied
  Corrected,               ///< error(s) found and corrected
  DetectedUncorrectable,   ///< error detected but beyond correction
};

struct DecodeResult {
  std::uint64_t data = 0;  ///< best-effort decoded data word
  DecodeStatus status = DecodeStatus::Ok;
  int corrected_bits = 0;  ///< number of bit corrections applied
};

/// Aggregate outcome of a decode_words() call.  The counters sum the
/// per-word DecodeResult fields, so folding them into running memory
/// statistics is bit-identical to folding each word in turn (addition
/// is order-insensitive).
struct BatchDecodeSummary {
  std::uint64_t corrected_words = 0;
  std::uint64_t corrected_bits = 0;
  std::uint64_t uncorrectable_words = 0;

  /// Fold one word's decode result into the counters.
  void add(const DecodeResult& r) {
    switch (r.status) {
      case DecodeStatus::Ok:
        break;
      case DecodeStatus::Corrected:
        ++corrected_words;
        corrected_bits += static_cast<std::uint64_t>(r.corrected_bits);
        break;
      case DecodeStatus::DetectedUncorrectable:
        ++uncorrectable_words;
        break;
    }
  }
};

/// A systematic binary block code protecting up to 64 data bits.
class BlockCode {
 public:
  virtual ~BlockCode() = default;

  virtual std::string name() const = 0;
  virtual std::size_t data_bits() const = 0;
  virtual std::size_t code_bits() const = 0;
  /// Guaranteed correction capability t (bits per codeword).
  virtual std::size_t correct_capability() const = 0;
  /// Guaranteed detection capability (bits per codeword; >= t).
  virtual std::size_t detect_capability() const = 0;

  virtual Bits encode(std::uint64_t data) const = 0;
  virtual DecodeResult decode(const Bits& received) const = 0;

  /// Batched raw-codeword kernels for codes whose codeword fits one
  /// 64-bit word (code_bits() <= 64) — the memory-stack burst path.
  /// Raw codewords are packed in the low code_bits() of each element
  /// (the SramModule storage format).  The defaults loop the scalar
  /// encode/decode; bit-parallel codes override with lane kernels that
  /// skip the per-word Bits marshalling.  Results must be bit-identical
  /// to the scalar calls on the same inputs.
  virtual void encode_batch(const std::uint64_t* data, std::size_t count,
                            std::uint64_t* out) const;
  virtual void decode_batch(const std::uint64_t* raw, std::size_t count,
                            DecodeResult* out) const;

  /// Word-direct burst kernels for 32-bit memory words: no widening
  /// pass on encode, no per-word DecodeResult intermediates on decode —
  /// the decoder writes the uint32 data lane directly and returns only
  /// the aggregate summary.  Defaults chunk through
  /// encode_batch/decode_batch; SECDED codes override with fused lanes.
  /// Must be bit-identical to the scalar path (data words and counter
  /// totals).  When `uncorrectable_at` is given, decode_words writes
  /// the index of every word that decodes as DetectedUncorrectable
  /// there, ascending (summary.uncorrectable_words entries; room for
  /// `count`).
  virtual void encode_words(const std::uint32_t* data, std::size_t count,
                            std::uint64_t* raw) const;
  virtual void decode_words(const std::uint64_t* raw, std::size_t count,
                            std::uint32_t* data, BatchDecodeSummary& summary,
                            std::uint32_t* uncorrectable_at = nullptr) const;

  /// Storage overhead: code_bits / data_bits.
  double overhead() const {
    return static_cast<double>(code_bits()) / static_cast<double>(data_bits());
  }
};

}  // namespace ntc::ecc
