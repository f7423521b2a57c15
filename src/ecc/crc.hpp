// CRC-32 (IEEE 802.3, reflected) for checkpoint-chunk integrity checks.
//
// OCEAN detects corrupted scratchpad chunks before consuming them; the
// software routine is a CRC over the chunk, which detects any burst up
// to 32 bits and any odd number of bit errors — far beyond the error
// multiplicities the FIT target allows to survive.
//
// The lookup tables are one process-wide constant built at compile
// time, so a Crc32 holds no state and costs nothing to construct.
#pragma once

#include <cstdint>
#include <span>

namespace ntc::ecc {

class Crc32 {
 public:
  /// CRC of a byte span (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
  static std::uint32_t compute(std::span<const std::uint8_t> bytes);

  /// CRC of a span of 32-bit words (little-endian byte order): equal to
  /// compute() over the words' bytes, folded a word at a time
  /// (slice-by-4).
  static std::uint32_t compute_words(std::span<const std::uint32_t> words);

  /// Streaming interface.
  static std::uint32_t update(std::uint32_t state, std::uint8_t byte);
  static std::uint32_t initial() { return 0xFFFFFFFFu; }
  static std::uint32_t finalize(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }
};

}  // namespace ntc::ecc
