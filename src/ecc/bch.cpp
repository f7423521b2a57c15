#include "ecc/bch.hpp"

#include <algorithm>
#include <set>

#include "common/assert.hpp"

namespace ntc::ecc {

namespace {

/// Minimal polynomial of alpha^i over GF(2): product of (x - alpha^j)
/// over the cyclotomic coset of i.
std::uint64_t minimal_polynomial(const GaloisField& field, unsigned i) {
  // Cyclotomic coset {i, 2i, 4i, ...} mod (2^m - 1).
  std::set<unsigned> coset;
  unsigned j = i % field.order();
  while (!coset.count(j)) {
    coset.insert(j);
    j = (j * 2) % field.order();
  }
  // Multiply (x + alpha^j) over the coset, with coefficients in GF(2^m);
  // the result is guaranteed to have GF(2) coefficients.
  std::vector<unsigned> poly{1};  // constant 1, ascending powers
  for (unsigned c : coset) {
    const unsigned root = field.alpha_pow(c);
    std::vector<unsigned> next(poly.size() + 1, 0);
    for (std::size_t d = 0; d < poly.size(); ++d) {
      next[d + 1] ^= poly[d];                   // x * poly
      next[d] ^= field.mul(poly[d], root);      // root * poly
    }
    poly = std::move(next);
  }
  std::uint64_t packed = 0;
  for (std::size_t d = 0; d < poly.size(); ++d) {
    NTC_REQUIRE_MSG(poly[d] <= 1, "minimal polynomial not binary");
    packed |= static_cast<std::uint64_t>(poly[d]) << d;
  }
  return packed;
}

std::uint64_t lcm_gf2(std::uint64_t a, std::uint64_t b) {
  // gcd via Euclid over GF(2)[x], then a*b/gcd.
  std::uint64_t x = a, y = b;
  while (y) {
    std::uint64_t r = gf2poly::mod(x, y);
    x = y;
    y = r;
  }
  // Divide a by gcd: simple long division.
  std::uint64_t quotient = 0, rem = a;
  const int dg = gf2poly::degree(x);
  while (gf2poly::degree(rem) >= dg && rem) {
    const int shift = gf2poly::degree(rem) - dg;
    quotient |= std::uint64_t{1} << shift;
    rem ^= x << shift;
  }
  NTC_REQUIRE(rem == 0);
  return gf2poly::multiply(quotient, b);
}

}  // namespace

BchCode::BchCode(unsigned m, unsigned t, std::size_t data_bits)
    : field_(m), t_(t), data_bits_(data_bits) {
  NTC_REQUIRE(t >= 1 && t <= 5);
  NTC_REQUIRE(data_bits >= 1 && data_bits <= 64);
  // Generator = lcm of the minimal polynomials of alpha^(2j-1).
  generator_ = 1;
  for (unsigned j = 1; j <= 2 * t - 1; j += 2)
    generator_ = lcm_gf2(generator_, minimal_polynomial(field_, j));
  parity_bits_ = static_cast<std::size_t>(gf2poly::degree(generator_));
  const std::size_t n_full = field_.order();
  NTC_REQUIRE_MSG(data_bits_ + parity_bits_ <= n_full,
                  "data does not fit the BCH code; increase m");

  // Per-position syndrome contributions: visiting only the set bits of
  // a received word and XORing these rows replaces 2t * n alpha_pow
  // evaluations per decode.
  const std::size_t n_used = code_bits();
  syndrome_rows_.resize(n_used * 2 * t_);
  for (std::size_t j = 0; j < n_used; ++j)
    for (unsigned i = 1; i <= 2 * t_; ++i)
      syndrome_rows_[j * 2 * t_ + i - 1] =
          field_.alpha_pow(static_cast<long long>(i) * static_cast<long long>(j));

  // Systematic parity table: data bit j contributes x^(r+j) mod g(x),
  // and a byte's entry is the XOR over its set bits.
  const std::size_t data_bytes = (data_bits_ + 7) / 8;
  parity_table_.assign(data_bytes * 256, 0);
  std::uint64_t bit_parity = generator_ ^ (std::uint64_t{1} << parity_bits_);
  for (std::size_t j = 0; j < data_bits_; ++j) {
    std::uint64_t* byte_table = &parity_table_[(j / 8) * 256];
    const unsigned bit = static_cast<unsigned>(1u << (j % 8));
    for (unsigned v = 0; v < 256; ++v)
      if (v & bit) byte_table[v] ^= bit_parity;
    bit_parity <<= 1;
    if ((bit_parity >> parity_bits_) & 1u) bit_parity ^= generator_;
  }
}

std::string BchCode::name() const {
  return "BCH(" + std::to_string(code_bits()) + "," +
         std::to_string(data_bits_) + ",t=" + std::to_string(t_) + ")";
}

std::uint64_t BchCode::parity_of(std::uint64_t data) const {
  // Systematic encoding: parity = (data(x) * x^r) mod g(x), one table
  // entry per data byte.
  const std::uint64_t* table = parity_table_.data();
  std::uint64_t parity = 0;
  for (std::size_t b = 0; b < parity_table_.size(); b += 256, data >>= 8)
    parity ^= table[b + (data & 0xFFu)];
  return parity;
}

Bits BchCode::encode(std::uint64_t data) const {
  if (data_bits_ < 64) NTC_REQUIRE((data >> data_bits_) == 0);
  // Layout: parity at [0, r) (low-order codeword coefficients), data at
  // [r, r + k'): codeword(x) = x^r * data(x) + parity(x).
  Bits code;
  code.set_word(0, (data << parity_bits_) | parity_of(data));
  if (code_bits() > 64) code.set_word(1, data >> (64 - parity_bits_));
  return code;
}

void BchCode::encode_words(const std::uint32_t* data, std::size_t count,
                           std::uint64_t* raw) const {
  NTC_REQUIRE(code_bits() <= 64);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = data[i];
    if (data_bits_ < 32) NTC_REQUIRE((d >> data_bits_) == 0);
    raw[i] = (d << parity_bits_) | parity_of(d);
  }
}

void BchCode::decode_words(const std::uint64_t* raw, std::size_t count,
                           std::uint32_t* data, BatchDecodeSummary& summary,
                           std::uint32_t* uncorrectable_at) const {
  NTC_REQUIRE(code_bits() <= 64);
  summary = BatchDecodeSummary{};
  const std::uint64_t code_mask = ~std::uint64_t{0} >> (64 - code_bits());
  const std::uint64_t parity_mask = (std::uint64_t{1} << parity_bits_) - 1;
  const std::uint64_t data_mask = ~std::uint64_t{0} >> (64 - data_bits_);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = (raw[i] >> parity_bits_) & data_mask;
    if (parity_of(d) == (raw[i] & parity_mask)) {
      data[i] = static_cast<std::uint32_t>(d);
      continue;
    }
    Bits word;
    word.set_word(0, raw[i] & code_mask);
    const DecodeResult result = decode(word);
    data[i] = static_cast<std::uint32_t>(result.data);
    if (uncorrectable_at != nullptr &&
        result.status == DecodeStatus::DetectedUncorrectable)
      uncorrectable_at[summary.uncorrectable_words] =
          static_cast<std::uint32_t>(i);
    summary.add(result);
  }
}

std::vector<unsigned> BchCode::syndromes(const Bits& received) const {
  const std::size_t n_used = code_bits();
  // Syndromes S_i = r(alpha^i), i = 1..2t: visit only the set codeword
  // bits word-parallel and accumulate their precomputed rows.
  std::vector<unsigned> syndrome(2 * t_ + 1, 0);
  const std::size_t words = (n_used + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t width = std::min<std::size_t>(64, n_used - wi * 64);
    std::uint64_t w = received.word(wi) & (~std::uint64_t{0} >> (64 - width));
    while (w) {
      const std::size_t j = wi * 64 +
                            static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const unsigned* row = &syndrome_rows_[j * 2 * t_];
      for (unsigned i = 1; i <= 2 * t_; ++i) syndrome[i] ^= row[i - 1];
    }
  }
  return syndrome;
}

DecodeResult BchCode::decode(const Bits& received) const {
  const std::size_t n_used = code_bits();
  const std::vector<unsigned> syndrome = syndromes(received);
  bool all_zero = true;
  for (unsigned i = 1; i <= 2 * t_; ++i)
    if (syndrome[i]) all_zero = false;

  auto extract_data = [&](const Bits& word) {
    return word.extract(parity_bits_, data_bits_);
  };

  DecodeResult result;
  if (all_zero) {
    result.status = DecodeStatus::Ok;
    result.data = extract_data(received);
    return result;
  }

  // Berlekamp-Massey: find the error locator sigma(x).
  std::vector<unsigned> sigma{1}, prev_sigma{1};
  unsigned prev_discrepancy = 1;
  int l = 0, shift = 1;
  for (unsigned step = 1; step <= 2 * t_; ++step) {
    unsigned d = syndrome[step];
    for (int i = 1; i <= l; ++i) {
      if (static_cast<std::size_t>(i) < sigma.size())
        d ^= field_.mul(sigma[static_cast<std::size_t>(i)], syndrome[step - i]);
    }
    if (d == 0) {
      ++shift;
    } else if (2 * l < static_cast<int>(step)) {
      std::vector<unsigned> save = sigma;
      const unsigned scale = field_.div(d, prev_discrepancy);
      sigma.resize(std::max(sigma.size(), prev_sigma.size() + shift), 0);
      for (std::size_t i = 0; i < prev_sigma.size(); ++i)
        sigma[i + shift] ^= field_.mul(scale, prev_sigma[i]);
      l = static_cast<int>(step) - l;
      prev_sigma = std::move(save);
      prev_discrepancy = d;
      shift = 1;
    } else {
      const unsigned scale = field_.div(d, prev_discrepancy);
      sigma.resize(std::max(sigma.size(), prev_sigma.size() + shift), 0);
      for (std::size_t i = 0; i < prev_sigma.size(); ++i)
        sigma[i + shift] ^= field_.mul(scale, prev_sigma[i]);
      ++shift;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const int errors = static_cast<int>(sigma.size()) - 1;
  if (errors <= 0 || errors > static_cast<int>(t_)) {
    result.status = DecodeStatus::DetectedUncorrectable;
    result.data = extract_data(received);
    return result;
  }

  // Chien search over the *used* positions (shortened code: an error
  // located beyond n_used means the decode is invalid).  Incremental:
  // term c starts at sigma_c and is multiplied by alpha^-c per step, so
  // each candidate position costs |sigma| table multiplies.
  Bits corrected = received;
  int found = 0;
  std::vector<unsigned> term(sigma.size()), step(sigma.size());
  for (std::size_t c = 0; c < sigma.size(); ++c) {
    term[c] = sigma[c];
    step[c] = field_.alpha_pow(-static_cast<long long>(c));
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(field_.order()); ++j) {
    // sigma(alpha^-j) == 0  <=>  error at position j.
    unsigned value = 0;
    for (std::size_t c = 0; c < sigma.size(); ++c) {
      value ^= term[c];
      term[c] = field_.mul(term[c], step[c]);
    }
    if (value == 0) {
      if (j >= n_used) {
        result.status = DecodeStatus::DetectedUncorrectable;
        result.data = extract_data(received);
        return result;
      }
      corrected.flip(j);
      ++found;
    }
  }
  if (found != errors) {
    result.status = DecodeStatus::DetectedUncorrectable;
    result.data = extract_data(received);
    return result;
  }
  result.status = DecodeStatus::Corrected;
  result.corrected_bits = found;
  result.data = extract_data(corrected);
  return result;
}

BchCode ocean_buffer_code() { return BchCode(6, 4, 32); }

}  // namespace ntc::ecc
