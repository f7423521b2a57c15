#include "ecc/code.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ntc::ecc {

void BlockCode::encode_batch(const std::uint64_t* data, std::size_t count,
                             std::uint64_t* out) const {
  const std::size_t n = code_bits();
  NTC_REQUIRE(n >= 1 && n <= 64);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = encode(data[i]).extract(0, n);
}

void BlockCode::decode_batch(const std::uint64_t* raw, std::size_t count,
                             DecodeResult* out) const {
  const std::size_t n = code_bits();
  NTC_REQUIRE(n >= 1 && n <= 64);
  const std::uint64_t mask = ~std::uint64_t{0} >> (64 - n);
  for (std::size_t i = 0; i < count; ++i) {
    Bits word;
    word.set_word(0, raw[i] & mask);
    out[i] = decode(word);
  }
}

namespace {
/// Scratch chunk for the word-direct defaults (matches the burst-layer
/// chunk so a default-path code sees the same working-set size).
constexpr std::size_t kWordChunk = 256;
}  // namespace

void BlockCode::encode_words(const std::uint32_t* data, std::size_t count,
                             std::uint64_t* raw) const {
  std::uint64_t widened[kWordChunk];
  for (std::size_t off = 0; off < count; off += kWordChunk) {
    const std::size_t m = std::min(count - off, kWordChunk);
    for (std::size_t i = 0; i < m; ++i) widened[i] = data[off + i];
    encode_batch(widened, m, raw + off);
  }
}

void BlockCode::decode_words(const std::uint64_t* raw, std::size_t count,
                             std::uint32_t* data, BatchDecodeSummary& summary,
                             std::uint32_t* uncorrectable_at) const {
  summary = BatchDecodeSummary{};
  DecodeResult results[kWordChunk];
  for (std::size_t off = 0; off < count; off += kWordChunk) {
    const std::size_t m = std::min(count - off, kWordChunk);
    decode_batch(raw + off, m, results);
    for (std::size_t i = 0; i < m; ++i) {
      data[off + i] = static_cast<std::uint32_t>(results[i].data);
      if (uncorrectable_at != nullptr &&
          results[i].status == DecodeStatus::DetectedUncorrectable)
        uncorrectable_at[summary.uncorrectable_words] =
            static_cast<std::uint32_t>(off + i);
      summary.add(results[i]);
    }
  }
}

}  // namespace ntc::ecc
