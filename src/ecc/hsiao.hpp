// Hsiao odd-weight-column SECDED code.
//
// Functionally equivalent to Hamming SECDED but with a parity-check
// matrix whose columns all have odd weight (minimum 3 for data bits),
// which balances the XOR trees and makes double-error detection a
// simple even-weight-syndrome check — the form actually synthesised in
// memory controllers (used by the codec-overhead model and the codec
// microbenchmarks).
//
// Encode/syndrome/decode are bit-parallel: the encoder and the
// syndrome computation XOR precomputed per-byte column contributions
// (one 256-entry table per codeword byte, so a (39,32) syndrome is
// five L1 loads), and the decoder maps the syndrome to the flip
// position through a 256-entry LUT instead of scanning the H columns.
// tests/ecc_reference.hpp keeps the original bit-serial kernels and
// the equivalence suite proves the two bit-exact over every 0/1/2-bit
// error pattern.
#pragma once

#include <array>
#include <vector>

#include "ecc/code.hpp"
#include "ecc/secded_simd.hpp"

namespace ntc::ecc {

class HsiaoSecded final : public BlockCode {
 public:
  /// Data widths up to 64 (needs C(r,3)+C(r,5)+... >= data_bits).
  explicit HsiaoSecded(std::size_t data_bits);

  std::string name() const override;
  std::size_t data_bits() const override { return k_; }
  std::size_t code_bits() const override { return k_ + r_; }
  std::size_t correct_capability() const override { return 1; }
  std::size_t detect_capability() const override { return 2; }

  Bits encode(std::uint64_t data) const override;
  DecodeResult decode(const Bits& received) const override;

  /// Single-uint64 lane kernels for codewords that fit one word
  /// (k + r <= 64); wider codes fall back to the scalar loop.
  void encode_batch(const std::uint64_t* data, std::size_t count,
                    std::uint64_t* out) const override;
  void decode_batch(const std::uint64_t* raw, std::size_t count,
                    DecodeResult* out) const override;
  void encode_words(const std::uint32_t* data, std::size_t count,
                    std::uint64_t* raw) const override;
  void decode_words(const std::uint64_t* raw, std::size_t count,
                    std::uint32_t* data, BatchDecodeSummary& summary,
                    std::uint32_t* uncorrectable_at = nullptr) const override;

  /// Total number of ones in H over the data columns — the XOR-tree
  /// size, which the codec energy model consumes.
  std::size_t h_matrix_ones() const;

  /// H column (check-bit mask) protecting data bit `i`.
  std::uint8_t column(std::size_t i) const { return column_[i]; }

 private:
  static constexpr std::uint8_t kNoFlip = 0xFF;

  std::uint8_t syndrome_of(const Bits& word) const;

  std::size_t k_;
  std::size_t r_;
  std::vector<std::uint8_t> column_;  ///< H column per data bit (bitmask of checks)

  // Bit-parallel kernel state (derived from column_ at construction).
  // syn_tab_[b][v] is the XOR of the H columns selected by the set bits
  // of codeword byte b holding value v (check-bit columns are the unit
  // vectors); positions beyond the codeword contribute zero, so stray
  // high bits in a received word are ignored without masking.
  std::uint64_t data_mask_ = 0;               ///< low k_ bits
  std::size_t code_bytes_ = 0;                ///< ceil((k_+r_) / 8)
  std::size_t data_bytes_ = 0;                ///< ceil(k_ / 8)
  std::array<std::array<std::uint8_t, 256>, 9> syn_tab_{};
  std::array<std::uint8_t, 256> flip_lut_{};  ///< syndrome -> codeword flip position

  // AVX2 nibble-LUT lanes for the (39,32) instance; the word kernels
  // dispatch on simd_ok_ && simd_avx2_active() and keep the scalar
  // loops above as the oracle (see ecc/secded_simd.hpp).
  Hsiao39Simd simd_{};
  bool simd_ok_ = false;
};

}  // namespace ntc::ecc
