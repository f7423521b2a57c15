#include "ecc/crc.hpp"

namespace ntc::ecc {

namespace {

/// kTables[0] is the byte-at-a-time table; kTables[k][b] is the CRC
/// state byte b leaves after k further zero bytes, so one word folds as
/// the XOR of four lookups, one per byte lane.
struct Crc32Tables {
  std::uint32_t t[4][256];
};

constexpr Crc32Tables make_tables() {
  constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected 0x04C11DB7
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 4; ++k)
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  return tables;
}

constexpr Crc32Tables kTables = make_tables();

}  // namespace

std::uint32_t Crc32::update(std::uint32_t state, std::uint8_t byte) {
  return kTables.t[0][(state ^ byte) & 0xFFu] ^ (state >> 8);
}

std::uint32_t Crc32::compute(std::span<const std::uint8_t> bytes) {
  std::uint32_t state = initial();
  for (std::uint8_t b : bytes) state = update(state, b);
  return finalize(state);
}

std::uint32_t Crc32::compute_words(std::span<const std::uint32_t> words) {
  std::uint32_t state = initial();
  for (const std::uint32_t w : words) {
    // The word's first (lowest) byte has the most bytes still to pass.
    const std::uint32_t x = state ^ w;
    state = (kTables.t[3][x & 0xFFu] ^ kTables.t[2][(x >> 8) & 0xFFu]) ^
            (kTables.t[1][(x >> 16) & 0xFFu] ^ kTables.t[0][x >> 24]);
  }
  return finalize(state);
}

}  // namespace ntc::ecc
