// Binary BCH codes over GF(2^m) with Berlekamp-Massey decoding.
//
// OCEAN stores checkpoint words in a buffer "with quadruple error
// correction capability" so that only a quintuple-bit error defeats the
// scheme.  The shortened BCH(t=4) instance over GF(2^6) provides
// exactly that: t = 4 guaranteed correction, failure only at >= 5
// errors.  t is a constructor parameter (1..5) so the mitigation
// ablations can sweep correction strength.
#pragma once

#include <vector>

#include "ecc/code.hpp"
#include "ecc/galois.hpp"

namespace ntc::ecc {

class BchCode final : public BlockCode {
 public:
  /// Shortened binary BCH over GF(2^m): full length n = 2^m - 1,
  /// shortened to carry `data_bits` (<= k of the full code, <= 64).
  BchCode(unsigned m, unsigned t, std::size_t data_bits);

  std::string name() const override;
  std::size_t data_bits() const override { return data_bits_; }
  std::size_t code_bits() const override { return data_bits_ + parity_bits_; }
  std::size_t correct_capability() const override { return t_; }
  std::size_t detect_capability() const override { return t_; }

  Bits encode(std::uint64_t data) const override;
  DecodeResult decode(const Bits& received) const override;

  /// Word-direct burst lanes; they require code_bits() <= 64, as the
  /// BlockCode defaults do.  Encode is raw = data << r | parity(data).
  /// Decode runs Berlekamp-Massey only on dirty words: a word is clean
  /// exactly when the parity of its data field equals its parity field,
  /// because its remainder mod g(x) is that XOR, has degree < r, and so
  /// vanishes at alpha^1..alpha^2t only when it is zero.
  void encode_words(const std::uint32_t* data, std::size_t count,
                    std::uint64_t* raw) const override;
  void decode_words(const std::uint64_t* raw, std::size_t count,
                    std::uint32_t* data, BatchDecodeSummary& summary,
                    std::uint32_t* uncorrectable_at = nullptr) const override;

  std::size_t parity_bits() const { return parity_bits_; }
  /// Generator polynomial (GF(2), LSB-first).
  std::uint64_t generator() const { return generator_; }

  /// Syndromes S_1..S_2t of a received word (index 0 unused) — the
  /// values Berlekamp-Massey consumes.  Computed word-parallel: only
  /// the set bits of the codeword are visited, each adding a
  /// precomputed alpha-power row.  Exposed so the equivalence suite can
  /// check it against the per-position reference loop.
  std::vector<unsigned> syndromes(const Bits& received) const;

 private:
  std::uint64_t parity_of(std::uint64_t data) const;

  GaloisField field_;
  unsigned t_;
  std::size_t data_bits_;
  std::size_t parity_bits_;
  std::uint64_t generator_ = 0;

  /// syndrome_rows_[j * 2t + (i-1)] = alpha^(i*j): position j's
  /// contribution to syndrome S_i.
  std::vector<unsigned> syndrome_rows_;
  /// parity_table_[b * 256 + v]: parity of the data word whose byte b
  /// holds v and whose other bytes are zero.  The parity is GF(2)-linear
  /// in the data, so a word's parity is the XOR of one entry per byte.
  std::vector<std::uint64_t> parity_table_;
};

/// The OCEAN protected-buffer code: 32 data bits, t = 4, 24 parity bits
/// (shortened BCH(63,39) -> (56,32)).
BchCode ocean_buffer_code();

}  // namespace ntc::ecc
