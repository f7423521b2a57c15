// AVX2 lanes for the (39,32) SECDED codecs.
//
// Both codecs' scalar word kernels are per-byte table XORs; these
// vector variants evaluate the same GF(2)-linear tables with vpshufb
// nibble LUTs, eight codewords per iteration (two 4 x u64 vectors).  A
// byte table splits exactly into two 16-entry nibble tables because the
// syndrome is XOR-linear in the bits: tab[v] == tab[v & 0x0F] ^
// tab[v & 0xF0].  The tables below are precomputed by the codec
// constructors for the k == 32 instances; other widths keep the scalar
// kernels unconditionally (as does BCH, whose Berlekamp-Massey decode
// is not table-linear — see DESIGN.md on the dispatch layer).
//
// Decode splits responsibilities: the vector kernel handles the
// all-clean fast path (overwhelmingly common on memory reads) and
// *stops* at the first 8-word block containing any suspect lane, which
// the caller re-runs through the scalar per-word classifier — so
// counters and corrections are the scalar path's by construction, and
// the scalar twin remains the oracle for the whole path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ntc::ecc {

/// Vector tables for HsiaoSecded(32) — systematic layout, data in the
/// low 32 bits, checks at [32, 39).  The five decode byte positions
/// reuse the scalar syn_tab_; encode folds positions 0..3 only.
struct Hsiao39Simd {
  std::uint8_t syn_lo[5][16];
  std::uint8_t syn_hi[5][16];
};

/// Vector tables for HammingSecded(32) — overall parity at bit 0,
/// check bits at power-of-two positions, data in five contiguous runs.
/// The non-systematic layout makes pure-AVX2 gather/scatter lose to the
/// scalar LUT lane, so these kernels additionally require BMI2: the
/// run permutation collapses to one pext/pdep against `data_mask`.
struct Hamming39Simd {
  // Decode tables: per-byte syndrome with the byte's parity packed into
  // bit 7.  Folding the five masked contributions into each lane's low
  // byte makes "clean" a single zero test: syndrome == 0 AND overall
  // parity even.
  std::uint8_t ext_lo[5][16];
  std::uint8_t ext_hi[5][16];
  // Encode tables: the full check state of a codeword is linear in the
  // data, so each data nibble contributes a 7-bit "parity byte" — bit 0
  // the overall-parity contribution (pre-deposit word plus its induced
  // check bits), bits 1..6 the check bits for positions 2^0..2^5 — laid
  // out to pdep straight through `parity_sel`.
  std::uint8_t par_lo[4][16];
  std::uint8_t par_hi[4][16];
  std::uint64_t all_lo = 0;      ///< valid code-bit mask (bits 0..38)
  std::uint64_t data_mask = 0;   ///< data positions (pext/pdep operand)
  std::uint64_t parity_sel = 0;  ///< position 0 plus the 2^j check bits
};

/// Decode the longest all-clean prefix (a multiple of 8 words): writes
/// the gathered data words and returns the count consumed.  Stops at
/// the first 8-word block containing a suspect lane and before any
/// sub-block tail; the caller finishes those words scalar.  Returns 0
/// on non-x86 builds.
std::size_t hsiao39_decode_clean_span(const Hsiao39Simd& t,
                                      const std::uint64_t* raw,
                                      std::size_t count, std::uint32_t* data);
std::size_t hamming39_decode_clean_span(const Hamming39Simd& t,
                                        const std::uint64_t* raw,
                                        std::size_t count,
                                        std::uint32_t* data);

/// Encode `count & ~7` words and return that count; the caller finishes
/// the tail scalar.  Returns 0 on non-x86 builds.
std::size_t hsiao39_encode_words(const Hsiao39Simd& t,
                                 const std::uint32_t* data, std::size_t count,
                                 std::uint64_t* raw);
std::size_t hamming39_encode_words(const Hamming39Simd& t,
                                   const std::uint32_t* data,
                                   std::size_t count, std::uint64_t* raw);

}  // namespace ntc::ecc
