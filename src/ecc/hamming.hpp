// Hamming SECDED codes (single-error-correcting, double-error-detecting)
// for arbitrary data widths up to 64 bits.
//
// This is the paper's ECC reference scheme: the (39,32) instance
// protects each 32-bit memory word; Hsiao's variant (hsiao.hpp) is the
// implementation usually synthesised in hardware.  A triple-bit error
// aliases to a valid single-error syndrome and mis-corrects — exactly
// the failure mode that sets the SECDED minimum voltage in Table 2.
//
// The kernels are bit-parallel: data scatters into the Hamming
// positions through precomputed contiguous-run shifts (the data
// positions between consecutive parity powers of two are contiguous),
// and the syndrome is the XOR of per-byte position tables (the XOR of
// the positions of all set bits; bit j of that XOR is exactly parity
// bit j, so the encoder shares the tables).  tests/ecc_reference.hpp
// keeps the original bit-serial kernels for the exhaustive equivalence
// suite.
#pragma once

#include <array>
#include <vector>

#include "ecc/code.hpp"
#include "ecc/secded_simd.hpp"

namespace ntc::ecc {

class HammingSecded final : public BlockCode {
 public:
  /// Construct for `data_bits` in [4, 64].  (39,32) and (72,64) are the
  /// common memory configurations.
  explicit HammingSecded(std::size_t data_bits);

  std::string name() const override;
  std::size_t data_bits() const override { return k_; }
  std::size_t code_bits() const override { return n_; }
  std::size_t correct_capability() const override { return 1; }
  std::size_t detect_capability() const override { return 2; }

  Bits encode(std::uint64_t data) const override;
  DecodeResult decode(const Bits& received) const override;

  /// Single-uint64 lane kernels for codewords that fit one word
  /// (n <= 64, which covers the (39,32) memory configuration); wider
  /// codes fall back to the scalar loop.
  void encode_batch(const std::uint64_t* data, std::size_t count,
                    std::uint64_t* out) const override;
  void decode_batch(const std::uint64_t* raw, std::size_t count,
                    DecodeResult* out) const override;
  void encode_words(const std::uint32_t* data, std::size_t count,
                    std::uint64_t* raw) const override;
  void decode_words(const std::uint64_t* raw, std::size_t count,
                    std::uint32_t* data, BatchDecodeSummary& summary,
                    std::uint32_t* uncorrectable_at = nullptr) const override;

  /// Number of parity bits excluding the overall parity.
  std::size_t hamming_parity_bits() const { return r_; }

 private:
  // Codeword layout: bit 0 = overall parity; bits 1..k_+r_ are the
  // classic Hamming positions (powers of two hold parity).
  bool is_parity_position(std::size_t pos) const;

  /// A maximal run of data positions between two parity powers of two:
  /// codeword bits [pos, pos+len) hold data bits [bit, bit+len).
  struct Run {
    std::uint8_t word;   ///< codeword storage word (0 or 1)
    std::uint8_t shift;  ///< bit offset within that word
    std::uint8_t bit;    ///< first data-bit index
    std::uint64_t mask;  ///< (1 << len) - 1
  };

  std::size_t k_;  // data bits
  std::size_t r_;  // Hamming parity bits
  std::size_t n_;  // total bits = k + r + 1

  // Bit-parallel kernel state (fixed by the layout at construction).
  // syn_tab_[b][v] is the XOR of the codeword positions selected by the
  // set bits of byte b holding value v (position 0 and positions beyond
  // the codeword contribute zero).
  std::vector<Run> runs_;
  std::size_t code_bytes_ = 0;  // ceil(n_ / 8)
  std::array<std::array<std::uint8_t, 256>, 9> syn_tab_{};
  std::uint64_t all_lo_ = 0;  // positions 0..m (overall parity cover)
  std::uint64_t all_hi_ = 0;

  // Byte-LUT lanes for the n <= 64 batch kernels (encode/decode are
  // GF(2)-linear, so per-byte table XOR composition is bit-exact with
  // the run-shift kernels above).  enc_tab_[b][v]: scattered data bits
  // plus parity-bit contribution of data byte b holding v (combine
  // bytes with XOR, then add the overall parity).  gather_tab_[b][v]:
  // data bits selected by code byte b holding v.  pos_data_[p]: data
  // bits affected by flipping codeword position p (zero for parity
  // positions), patching a single-bit correction into a gathered word.
  std::size_t data_bytes_ = 0;  // ceil(k_ / 8)
  std::array<std::array<std::uint64_t, 256>, 8> enc_tab_{};
  std::array<std::array<std::uint64_t, 256>, 8> gather_tab_{};
  std::array<std::uint64_t, 64> pos_data_{};

  // Fused decode table for k <= 56: gather_tab_ entry with the syn_tab_
  // entry packed into bits 56..63 (the syndrome is at most 6 bits, data
  // occupies the low k_ bits, so the fields cannot collide).  One
  // lookup per code byte instead of two — the decode_words hot lane.
  bool packed_dec_ = false;
  std::array<std::array<std::uint64_t, 256>, 8> dec_tab_{};

  // AVX2 nibble-LUT lanes for the (39,32) instance; the word kernels
  // dispatch on simd_ok_ && simd_avx2_active() and keep the scalar
  // loops above as the oracle (see ecc/secded_simd.hpp).
  Hamming39Simd simd_{};
  bool simd_ok_ = false;
};

/// The paper's memory-word configuration.
inline HammingSecded secded_39_32() { return HammingSecded(32); }

}  // namespace ntc::ecc
