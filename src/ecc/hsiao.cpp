#include "ecc/hsiao.hpp"

#include <algorithm>
#include <bit>

#include "common/cpu.hpp"
#include "ecc/bitops.hpp"

namespace ntc::ecc {

namespace {

/// Split a single bit positioned at `offset` of a 128-bit codeword into
/// its word-0 / word-1 halves.  Branch free: the double shifts stay
/// defined for offset 0 and 64.
inline std::uint64_t field_lo(std::uint64_t field, std::size_t offset) {
  return (field << (offset & 63)) * static_cast<std::uint64_t>(offset < 64);
}

inline std::uint64_t field_hi(std::uint64_t field, std::size_t offset) {
  if (offset >= 64) return field << (offset - 64);
  return (field >> 1) >> (63 - offset);
}

}  // namespace

HsiaoSecded::HsiaoSecded(std::size_t data_bits) : k_(data_bits) {
  NTC_REQUIRE(data_bits >= 4 && data_bits <= 64);
  // Smallest r such that the number of odd-weight-(>=3) columns covers k.
  r_ = 4;
  auto capacity = [](std::size_t r) {
    // C(r,3) + C(r,5) + ... (odd weights >= 3)
    std::size_t total = 0;
    for (std::size_t w = 3; w <= r; w += 2) {
      std::size_t c = 1;
      for (std::size_t i = 0; i < w; ++i) c = c * (r - i) / (i + 1);
      total += c;
    }
    return total;
  };
  while (capacity(r_) < k_) ++r_;
  NTC_REQUIRE(r_ <= 8);  // flip_lut_/syndrome tables assume 8-bit syndromes
  // Assign data columns: all odd-weight (>=3) masks in increasing weight
  // then numeric order — the canonical Hsiao construction keeps per-row
  // weight balanced well enough for the energy model.
  for (std::size_t weight = 3; weight <= r_ && column_.size() < k_; weight += 2) {
    for (std::size_t mask = 1; mask < (std::size_t{1} << r_) && column_.size() < k_;
         ++mask) {
      if (std::popcount(mask) == static_cast<int>(weight))
        column_.push_back(static_cast<std::uint8_t>(mask));
    }
  }
  NTC_REQUIRE(column_.size() == k_);

  data_mask_ = ~std::uint64_t{0} >> (64 - k_);
  data_bytes_ = (k_ + 7) / 8;
  code_bytes_ = (k_ + r_ + 7) / 8;

  // Per-byte column-contribution tables.  Column of codeword position
  // p: H column for data bits (p < k), unit vector for check bits
  // (k <= p < k+r), zero beyond the codeword.
  auto column_at = [&](std::size_t pos) -> std::uint8_t {
    if (pos < k_) return column_[pos];
    if (pos < k_ + r_) return static_cast<std::uint8_t>(1u << (pos - k_));
    return 0;
  };
  for (std::size_t b = 0; b < code_bytes_; ++b) {
    for (std::size_t v = 1; v < 256; ++v) {
      const std::size_t low = static_cast<std::size_t>(std::countr_zero(v));
      syn_tab_[b][v] = static_cast<std::uint8_t>(syn_tab_[b][v & (v - 1)] ^
                                                 column_at(b * 8 + low));
    }
  }

  // Syndrome -> flip position.  Data columns have odd weight >= 3 and
  // check columns are the weight-1 unit vectors, so the two key sets
  // cannot collide; every other syndrome maps to "no single-bit match".
  flip_lut_.fill(kNoFlip);
  for (std::size_t i = 0; i < k_; ++i)
    flip_lut_[column_[i]] = static_cast<std::uint8_t>(i);
  for (std::size_t j = 0; j < r_; ++j)
    flip_lut_[std::size_t{1} << j] = static_cast<std::uint8_t>(k_ + j);

  // Nibble-split vector tables for the (39,32) memory configuration:
  // syn_tab_[b][v] == syn_tab_[b][v & 0x0F] ^ syn_tab_[b][v & 0xF0] by
  // GF(2) linearity, so the two 16-entry halves reconstruct it exactly.
  if (k_ == 32 && r_ == 7) {
    for (int b = 0; b < 5; ++b) {
      for (int v = 0; v < 16; ++v) {
        simd_.syn_lo[b][v] = syn_tab_[b][static_cast<std::size_t>(v)];
        simd_.syn_hi[b][v] = syn_tab_[b][static_cast<std::size_t>(v) << 4];
      }
    }
    simd_ok_ = true;
  }
}

std::string HsiaoSecded::name() const {
  return "Hsiao(" + std::to_string(k_ + r_) + "," + std::to_string(k_) + ")";
}

std::size_t HsiaoSecded::h_matrix_ones() const {
  std::size_t ones = 0;
  for (auto c : column_) ones += static_cast<std::size_t>(std::popcount(c));
  return ones;
}

Bits HsiaoSecded::encode(std::uint64_t data) const {
  if (k_ < 64) NTC_REQUIRE((data >> k_) == 0);
  // Systematic layout: data bits at [0, k), check bits at [k, k+r).
  // The check bits are the XOR of the data columns, which is exactly
  // the syndrome of the data bytes alone.
  std::uint64_t checks = 0;
  for (std::size_t b = 0; b < data_bytes_; ++b)
    checks ^= syn_tab_[b][(data >> (b * 8)) & 0xFFu];
  Bits code;
  code.set_word(0, data | field_lo(checks, k_));
  code.set_word(1, field_hi(checks, k_));
  return code;
}

std::uint8_t HsiaoSecded::syndrome_of(const Bits& word) const {
  const std::uint64_t w0 = word.word(0);
  const std::uint64_t w1 = word.word(1);
  std::uint64_t syndrome = 0;
  for (std::size_t b = 0; b < code_bytes_; ++b) {
    const std::uint64_t w = b < 8 ? w0 : w1;
    syndrome ^= syn_tab_[b][(w >> ((b & 7) * 8)) & 0xFFu];
  }
  return static_cast<std::uint8_t>(syndrome);
}

DecodeResult HsiaoSecded::decode(const Bits& received) const {
  DecodeResult result;
  std::uint64_t w0 = received.word(0);
  const std::uint8_t syndrome = syndrome_of(received);
  if (syndrome == 0) {
    result.status = DecodeStatus::Ok;
  } else if (parity64(syndrome) != 0) {
    // Odd-weight syndrome: single error (or mis-corrected triple).
    const std::uint8_t pos = flip_lut_[syndrome];
    if (pos != kNoFlip) {
      // Only a data-bit flip (< 64) can change the extracted word; the
      // trailing data_mask_ discards check-bit flips branch-free.
      w0 ^= field_lo(1, pos);
      result.status = DecodeStatus::Corrected;
      result.corrected_bits = 1;
    } else {
      // Odd syndrome matching no column: >= 3 errors, detected.
      result.status = DecodeStatus::DetectedUncorrectable;
    }
  } else {
    // Even-weight nonzero syndrome: double error.
    result.status = DecodeStatus::DetectedUncorrectable;
  }
  result.data = w0 & data_mask_;
  return result;
}

void HsiaoSecded::encode_batch(const std::uint64_t* data, std::size_t count,
                               std::uint64_t* out) const {
  if (k_ + r_ > 64) {
    BlockCode::encode_batch(data, count, out);
    return;
  }
  // k + r <= 64 (and r >= 4, so k <= 60): codeword fits word 0 and the
  // check field never straddles into word 1.
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = data[i];
    if (k_ < 64) NTC_REQUIRE((d >> k_) == 0);
    std::uint64_t checks = 0;
    for (std::size_t b = 0; b < data_bytes_; ++b)
      checks ^= syn_tab_[b][(d >> (b * 8)) & 0xFFu];
    out[i] = d | (checks << k_);
  }
}

void HsiaoSecded::decode_batch(const std::uint64_t* raw, std::size_t count,
                               DecodeResult* out) const {
  if (k_ + r_ > 64) {
    BlockCode::decode_batch(raw, count, out);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t w0 = raw[i];
    std::uint64_t syndrome = 0;
    for (std::size_t b = 0; b < code_bytes_; ++b)
      syndrome ^= syn_tab_[b][(w0 >> (b * 8)) & 0xFFu];
    const std::uint8_t syn = static_cast<std::uint8_t>(syndrome);
    DecodeResult result;
    if (syn == 0) {
      result.status = DecodeStatus::Ok;
    } else if (parity64(syn) != 0) {
      const std::uint8_t pos = flip_lut_[syn];
      if (pos != kNoFlip) {
        w0 ^= std::uint64_t{1} << pos;
        result.status = DecodeStatus::Corrected;
        result.corrected_bits = 1;
      } else {
        result.status = DecodeStatus::DetectedUncorrectable;
      }
    } else {
      result.status = DecodeStatus::DetectedUncorrectable;
    }
    result.data = w0 & data_mask_;
    out[i] = result;
  }
}

void HsiaoSecded::encode_words(const std::uint32_t* data, std::size_t count,
                               std::uint64_t* raw) const {
  if (k_ + r_ > 64) {
    BlockCode::encode_words(data, count, raw);
    return;
  }
  std::size_t start = 0;
  if (simd_ok_ && simd_avx2_active())
    start = hsiao39_encode_words(simd_, data, count, raw);
  for (std::size_t i = start; i < count; ++i) {
    const std::uint64_t d = data[i];
    if (k_ < 32) NTC_REQUIRE((d >> k_) == 0);
    std::uint64_t checks = 0;
    for (std::size_t b = 0; b < data_bytes_; ++b)
      checks ^= syn_tab_[b][(d >> (b * 8)) & 0xFFu];
    raw[i] = d | (checks << k_);
  }
}

void HsiaoSecded::decode_words(const std::uint64_t* raw, std::size_t count,
                               std::uint32_t* data,
                               BatchDecodeSummary& summary,
                               std::uint32_t* uncorrectable_at) const {
  if (k_ + r_ > 64) {
    BlockCode::decode_words(raw, count, data, summary, uncorrectable_at);
    return;
  }
  summary = BatchDecodeSummary{};
  // Same lane as decode_batch with the data word and aggregate counters
  // written directly; a SECDED correction is always one bit.
  const auto decode_one = [&](std::size_t i) {
    std::uint64_t w0 = raw[i];
    std::uint64_t syndrome = 0;
    for (std::size_t b = 0; b < code_bytes_; ++b)
      syndrome ^= syn_tab_[b][(w0 >> (b * 8)) & 0xFFu];
    const std::uint8_t syn = static_cast<std::uint8_t>(syndrome);
    if (syn != 0) {
      if (parity64(syn) != 0 && flip_lut_[syn] != kNoFlip) {
        w0 ^= std::uint64_t{1} << flip_lut_[syn];
        ++summary.corrected_words;
        ++summary.corrected_bits;
      } else {
        if (uncorrectable_at != nullptr)
          uncorrectable_at[summary.uncorrectable_words] =
              static_cast<std::uint32_t>(i);
        ++summary.uncorrectable_words;
      }
    }
    data[i] = static_cast<std::uint32_t>(w0 & data_mask_);
  };
  if (simd_ok_ && simd_avx2_active()) {
    // Vector clean spans; any 8-word block with a suspect lane (and the
    // sub-block tail) re-runs through the scalar classifier in index
    // order, so counters and corrections match the scalar loop exactly.
    std::size_t i = 0;
    while (i < count) {
      i += hsiao39_decode_clean_span(simd_, raw + i, count - i, data + i);
      const std::size_t stop = std::min(count, i + 8);
      for (; i < stop; ++i) decode_one(i);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) decode_one(i);
}

}  // namespace ntc::ecc
