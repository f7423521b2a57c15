#include "ecc/hamming.hpp"

#include <algorithm>
#include <bit>

#include "common/cpu.hpp"
#include "ecc/bitops.hpp"

namespace ntc::ecc {

namespace {

std::size_t parity_bits_for(std::size_t k) {
  std::size_t r = 2;
  while ((std::size_t{1} << r) < k + r + 1) ++r;
  return r;
}

}  // namespace

HammingSecded::HammingSecded(std::size_t data_bits) : k_(data_bits) {
  NTC_REQUIRE(data_bits >= 4 && data_bits <= 64);
  r_ = parity_bits_for(k_);
  n_ = k_ + r_ + 1;
  NTC_REQUIRE(r_ <= 8 && n_ <= 128);

  const std::size_t m = k_ + r_;
  auto lo_bit = [](std::size_t pos) {
    return pos < 64 ? std::uint64_t{1} << pos : 0;
  };
  auto hi_bit = [](std::size_t pos) {
    return pos >= 64 ? std::uint64_t{1} << (pos - 64) : 0;
  };

  // Contiguous data runs between parity powers of two, and the
  // overall-parity cover mask.
  std::size_t bit = 0;
  for (std::size_t pos = 1; pos <= m; ++pos) {
    if (!is_parity_position(pos)) {
      const bool extend = !runs_.empty() &&
                          runs_.back().word == (pos >> 6) &&
                          runs_.back().shift + std::popcount(runs_.back().mask) ==
                              static_cast<int>(pos & 63);
      if (extend) {
        runs_.back().mask = (runs_.back().mask << 1) | 1u;
      } else {
        runs_.push_back(Run{static_cast<std::uint8_t>(pos >> 6),
                            static_cast<std::uint8_t>(pos & 63),
                            static_cast<std::uint8_t>(bit), 1u});
      }
      ++bit;
    }
    all_lo_ |= lo_bit(pos);
    all_hi_ |= hi_bit(pos);
  }
  all_lo_ |= 1u;  // overall parity covers position 0 too

  // Per-byte XOR-of-positions tables.  Bit j of the accumulated XOR is
  // the parity of the count of set positions with bit j — i.e. the
  // syndrome (and, applied to the scattered data alone, parity bit j).
  code_bytes_ = (m + 8) / 8;  // positions 0..m
  for (std::size_t b = 0; b < code_bytes_; ++b) {
    for (std::size_t v = 1; v < 256; ++v) {
      const std::size_t pos = b * 8 + static_cast<std::size_t>(std::countr_zero(v));
      const std::uint8_t contrib =
          (pos >= 1 && pos <= m) ? static_cast<std::uint8_t>(pos) : 0;
      syn_tab_[b][v] = static_cast<std::uint8_t>(syn_tab_[b][v & (v - 1)] ^ contrib);
    }
  }

  if (n_ <= 64) {
    // Byte-LUT lanes for the batch kernels.  Scatter, parity and gather
    // are all XOR-linear in the input, so each table entry is just the
    // run-shift kernel applied to one isolated byte.
    data_bytes_ = (k_ + 7) / 8;
    auto scatter = [this](std::uint64_t d) {
      std::uint64_t w = 0;
      for (const Run& run : runs_)
        w |= ((d >> run.bit) & run.mask) << run.shift;
      return w;
    };
    auto gather = [this](std::uint64_t c) {
      std::uint64_t d = 0;
      for (const Run& run : runs_)
        d |= ((c >> run.shift) & run.mask) << run.bit;
      return d;
    };
    for (std::size_t b = 0; b < data_bytes_; ++b) {
      for (std::size_t v = 0; v < 256; ++v) {
        std::uint64_t w = scatter(static_cast<std::uint64_t>(v) << (b * 8));
        std::uint64_t parities = 0;
        for (std::size_t cb = 0; cb < code_bytes_; ++cb)
          parities ^= syn_tab_[cb][(w >> (cb * 8)) & 0xFFu];
        for (std::size_t j = 0; j < r_; ++j)
          w ^= ((parities >> j) & 1u) << (std::size_t{1} << j);
        enc_tab_[b][v] = w;
      }
    }
    for (std::size_t b = 0; b < code_bytes_; ++b)
      for (std::size_t v = 0; v < 256; ++v)
        gather_tab_[b][v] = gather(static_cast<std::uint64_t>(v) << (b * 8));
    for (std::size_t pos = 1; pos <= m; ++pos)
      pos_data_[pos] = gather(std::uint64_t{1} << pos);
    packed_dec_ = k_ <= 56;
    if (packed_dec_) {
      for (std::size_t b = 0; b < code_bytes_; ++b)
        for (std::size_t v = 0; v < 256; ++v)
          dec_tab_[b][v] = gather_tab_[b][v] |
                           (static_cast<std::uint64_t>(syn_tab_[b][v]) << 56);
    }

    // Nibble-split vector tables for the (39,32) memory configuration.
    // Syndromes fit 6 bits, so bit 7 is free to carry the byte's own
    // parity: folding the ext tables leaves each lane's low byte zero
    // exactly when syndrome == 0 and the overall parity is even.
    if (k_ == 32 && n_ == 39) {
      for (int b = 0; b < 5; ++b) {
        for (int v = 0; v < 16; ++v) {
          const auto plo =
              static_cast<std::uint8_t>((std::popcount(static_cast<unsigned>(v)) & 1)
                                        << 7);
          simd_.ext_lo[b][v] = static_cast<std::uint8_t>(
              syn_tab_[b][static_cast<std::size_t>(v)] | plo);
          simd_.ext_hi[b][v] = static_cast<std::uint8_t>(
              syn_tab_[b][static_cast<std::size_t>(v) << 4] | plo);
        }
      }
      // Encoder parity-byte tables, decomposed from enc_tab_ (linear in
      // the data): bit 0 is the overall-parity contribution of the
      // scattered nibble plus its induced check bits, bits 1+j the
      // check-bit values at positions 2^j — the pdep source order for
      // parity_sel's ascending set bits {0, 1, 2, 4, 8, 16, 32}.
      auto par_byte = [this](std::uint64_t e) {
        std::uint8_t p = static_cast<std::uint8_t>(parity64(e));
        for (std::size_t j = 0; j < r_; ++j)
          p |= static_cast<std::uint8_t>(((e >> (std::size_t{1} << j)) & 1u)
                                         << (1 + j));
        return p;
      };
      for (int b = 0; b < 4; ++b) {
        for (int v = 0; v < 16; ++v) {
          simd_.par_lo[b][v] = par_byte(enc_tab_[b][static_cast<std::size_t>(v)]);
          simd_.par_hi[b][v] =
              par_byte(enc_tab_[b][static_cast<std::size_t>(v) << 4]);
        }
      }
      simd_.all_lo = all_lo_;
      for (const Run& run : runs_)
        simd_.data_mask |= run.mask << run.shift;
      simd_.parity_sel = 1;
      for (std::size_t j = 0; j < r_; ++j)
        simd_.parity_sel |= std::uint64_t{1} << (std::size_t{1} << j);
      // The vector lanes permute the runs with pext/pdep; without BMI2
      // the scalar LUT lane stays the faster path anyway.
      simd_ok_ = cpu_features().bmi2;
    }
  }
}

std::string HammingSecded::name() const {
  return "SECDED(" + std::to_string(n_) + "," + std::to_string(k_) + ")";
}

bool HammingSecded::is_parity_position(std::size_t pos) const {
  return std::has_single_bit(pos);
}

Bits HammingSecded::encode(std::uint64_t data) const {
  if (k_ < 64) NTC_REQUIRE((data >> k_) == 0);
  // Scatter data into non-power-of-two Hamming positions 3,5,6,7,...
  std::uint64_t w[2] = {0, 0};
  for (const Run& run : runs_)
    w[run.word] |= ((data >> run.bit) & run.mask) << run.shift;
  // Parity bit at position 2^j covers every data position with bit j
  // set, so it is bit j of the XOR of the set data positions.
  std::uint64_t parities = 0;
  for (std::size_t b = 0; b < code_bytes_; ++b) {
    const std::uint64_t word = b < 8 ? w[0] : w[1];
    parities ^= syn_tab_[b][(word >> ((b & 7) * 8)) & 0xFFu];
  }
  for (std::size_t j = 0; j < r_; ++j) {
    const std::size_t p = std::size_t{1} << j;
    w[p >> 6] |= ((parities >> j) & 1u) << (p & 63);
  }
  // Overall parity over the whole word (position 0) makes total even.
  w[0] |= parity128(w[0], w[1]);
  Bits code;
  code.set_word(0, w[0]);
  code.set_word(1, w[1]);
  return code;
}

DecodeResult HammingSecded::decode(const Bits& received) const {
  const std::uint64_t w0 = received.word(0) & all_lo_;
  const std::uint64_t w1 = received.word(1) & all_hi_;
  // Syndrome: XOR of the positions of all set bits; overall parity of
  // the whole word including position 0.
  std::uint64_t syndrome = 0;
  for (std::size_t b = 0; b < code_bytes_; ++b) {
    const std::uint64_t w = b < 8 ? w0 : w1;
    syndrome ^= syn_tab_[b][(w >> ((b & 7) * 8)) & 0xFFu];
  }
  const bool overall = parity128(w0, w1) != 0;

  const std::size_t m = k_ + r_;
  std::uint64_t c[2] = {w0, w1};
  DecodeResult result;
  if (syndrome == 0 && !overall) {
    result.status = DecodeStatus::Ok;
  } else if (syndrome == 0 && overall) {
    // The overall parity bit itself flipped; data is untouched.
    result.status = DecodeStatus::Corrected;
    result.corrected_bits = 1;
  } else if (overall) {
    // Odd number of errors with a nonzero syndrome: treat as single
    // error at `syndrome` (a triple error mis-corrects here — the
    // SECDED failure mode).
    if (syndrome <= m) {
      c[syndrome >> 6] ^= std::uint64_t{1} << (syndrome & 63);
      result.status = DecodeStatus::Corrected;
      result.corrected_bits = 1;
    } else {
      result.status = DecodeStatus::DetectedUncorrectable;
    }
  } else {
    // Even parity with nonzero syndrome: double error, detected.
    result.status = DecodeStatus::DetectedUncorrectable;
  }
  // Gather data bits back out through the run shifts.
  std::uint64_t data = 0;
  for (const Run& run : runs_)
    data |= ((c[run.word] >> run.shift) & run.mask) << run.bit;
  result.data = data;
  return result;
}

void HammingSecded::encode_batch(const std::uint64_t* data, std::size_t count,
                                 std::uint64_t* out) const {
  if (n_ > 64) {
    BlockCode::encode_batch(data, count, out);
    return;
  }
  // n <= 64: every position lives in storage word 0 (all_hi_ == 0), so
  // a lane is data_bytes_ table XORs (scattered data + parity bits in
  // one lookup) plus the overall parity.
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = data[i];
    if (k_ < 64) NTC_REQUIRE((d >> k_) == 0);
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < data_bytes_; ++b)
      w ^= enc_tab_[b][(d >> (b * 8)) & 0xFFu];
    w |= parity64(w);
    out[i] = w;
  }
}

void HammingSecded::decode_batch(const std::uint64_t* raw, std::size_t count,
                                 DecodeResult* out) const {
  if (n_ > 64) {
    BlockCode::decode_batch(raw, count, out);
    return;
  }
  // Fused lane: one pass over the code bytes accumulates the syndrome
  // and the gathered data together; a single-bit correction is patched
  // in afterwards via pos_data_ (gather is linear, so gather(w ^ bit)
  // == gather(w) ^ gather(bit)).
  const std::size_t m = k_ + r_;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t w0 = raw[i] & all_lo_;
    std::uint64_t syndrome = 0;
    std::uint64_t data = 0;
    for (std::size_t b = 0; b < code_bytes_; ++b) {
      const std::uint64_t byte = (w0 >> (b * 8)) & 0xFFu;
      syndrome ^= syn_tab_[b][byte];
      data ^= gather_tab_[b][byte];
    }
    const bool overall = parity64(w0) != 0;

    DecodeResult result;
    if (syndrome == 0 && !overall) {
      result.status = DecodeStatus::Ok;
    } else if (syndrome == 0 && overall) {
      result.status = DecodeStatus::Corrected;
      result.corrected_bits = 1;
    } else if (overall) {
      if (syndrome <= m) {
        data ^= pos_data_[syndrome];
        result.status = DecodeStatus::Corrected;
        result.corrected_bits = 1;
      } else {
        result.status = DecodeStatus::DetectedUncorrectable;
      }
    } else {
      result.status = DecodeStatus::DetectedUncorrectable;
    }
    result.data = data;
    out[i] = result;
  }
}

void HammingSecded::encode_words(const std::uint32_t* data, std::size_t count,
                                 std::uint64_t* raw) const {
  if (n_ > 64) {
    BlockCode::encode_words(data, count, raw);
    return;
  }
  // Word-direct lane: no widening pass, and for 32-bit data only the
  // low data_bytes_ tables contribute.  The 4-byte case (every k in
  // (24, 32], including the (39,32) memory configuration) is unrolled
  // with a fixed trip count so the four loads issue in parallel instead
  // of through the loop's serial XOR chain.
  if (data_bytes_ == 4 && k_ == 32) {
    std::size_t start = 0;
    if (simd_ok_ && simd_avx2_active())
      start = hamming39_encode_words(simd_, data, count, raw);
    for (std::size_t i = start; i < count; ++i) {
      const std::uint32_t d = data[i];
      std::uint64_t w = (enc_tab_[0][d & 0xFFu] ^ enc_tab_[1][(d >> 8) & 0xFFu]) ^
                        (enc_tab_[2][(d >> 16) & 0xFFu] ^ enc_tab_[3][d >> 24]);
      w |= parity64(w);
      raw[i] = w;
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t d = data[i];
    if (k_ < 32) NTC_REQUIRE((d >> k_) == 0);
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < data_bytes_; ++b)
      w ^= enc_tab_[b][(d >> (b * 8)) & 0xFFu];
    w |= parity64(w);
    raw[i] = w;
  }
}

void HammingSecded::decode_words(const std::uint64_t* raw, std::size_t count,
                                 std::uint32_t* data,
                                 BatchDecodeSummary& summary,
                                 std::uint32_t* uncorrectable_at) const {
  if (n_ > 64 || !packed_dec_) {
    BlockCode::decode_words(raw, count, data, summary, uncorrectable_at);
    return;
  }
  summary = BatchDecodeSummary{};
  // Same fused lane as decode_batch, but through the packed table (one
  // lookup per code byte yields syndrome and gathered data together)
  // with the data word and the aggregate counters written directly — no
  // DecodeResult intermediates.  A SECDED correction is always exactly
  // one bit, so corrected_bits tracks corrected_words.
  const std::size_t m = k_ + r_;
  // Classification tail shared by the unrolled and the generic lane.
  auto finish = [&](std::size_t i, std::uint64_t w0, std::uint64_t acc) {
    const std::uint64_t syndrome = acc >> 56;
    std::uint64_t d = acc & (~std::uint64_t{0} >> 8);
    const bool overall = parity64(w0) != 0;
    if (syndrome == 0) {
      if (overall) {
        ++summary.corrected_words;
        ++summary.corrected_bits;
      }
    } else if (overall && syndrome <= m) {
      d ^= pos_data_[syndrome];
      ++summary.corrected_words;
      ++summary.corrected_bits;
    } else {
      if (uncorrectable_at != nullptr)
        uncorrectable_at[summary.uncorrectable_words] =
            static_cast<std::uint32_t>(i);
      ++summary.uncorrectable_words;
    }
    data[i] = static_cast<std::uint32_t>(d);
  };
  if (code_bytes_ == 5) {
    // (39,32)-class codewords: fixed trip count lets the five table
    // loads issue in parallel instead of through the serial XOR chain.
    const auto decode_one = [&](std::size_t i) {
      const std::uint64_t w0 = raw[i] & all_lo_;
      const std::uint64_t acc =
          (dec_tab_[0][w0 & 0xFFu] ^ dec_tab_[1][(w0 >> 8) & 0xFFu]) ^
          (dec_tab_[2][(w0 >> 16) & 0xFFu] ^ dec_tab_[3][(w0 >> 24) & 0xFFu]) ^
          dec_tab_[4][(w0 >> 32) & 0xFFu];
      finish(i, w0, acc);
    };
    if (simd_ok_ && simd_avx2_active()) {
      // Vector clean spans; any 8-word block with a suspect lane (and
      // the sub-block tail) re-runs through the scalar classifier in
      // index order, so counters and corrections match the scalar loop
      // exactly.
      std::size_t i = 0;
      while (i < count) {
        i += hamming39_decode_clean_span(simd_, raw + i, count - i, data + i);
        const std::size_t stop = std::min(count, i + 8);
        for (; i < stop; ++i) decode_one(i);
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) decode_one(i);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t w0 = raw[i] & all_lo_;
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < code_bytes_; ++b)
      acc ^= dec_tab_[b][(w0 >> (b * 8)) & 0xFFu];
    finish(i, w0, acc);
  }
}

}  // namespace ntc::ecc
