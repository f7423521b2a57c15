#include "ecc/bch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ecc/galois.hpp"

namespace ntc::ecc {
namespace {

TEST(GaloisField, AxiomsHoldInGf64) {
  GaloisField gf(6);
  EXPECT_EQ(gf.order(), 63u);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    unsigned a = 1 + static_cast<unsigned>(rng.uniform_u64(63));
    unsigned b = 1 + static_cast<unsigned>(rng.uniform_u64(63));
    unsigned c = 1 + static_cast<unsigned>(rng.uniform_u64(63));
    EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
    EXPECT_EQ(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c));
    EXPECT_EQ(gf.mul(a, gf.inv(a)), 1u);
    EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
    // Distributivity over XOR addition.
    EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
  }
}

TEST(GaloisField, AlphaGeneratesTheField) {
  GaloisField gf(6);
  std::set<unsigned> seen;
  for (unsigned e = 0; e < gf.order(); ++e) seen.insert(gf.alpha_pow(e));
  EXPECT_EQ(seen.size(), 63u);  // every nonzero element
  EXPECT_EQ(gf.alpha_pow(63), gf.alpha_pow(0));  // order wraps
  EXPECT_EQ(gf.alpha_pow(-1), gf.inv(gf.alpha_pow(1)));
}

TEST(GaloisField, PowAndLogConsistent) {
  GaloisField gf(8);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    unsigned a = 1 + static_cast<unsigned>(rng.uniform_u64(255));
    EXPECT_EQ(gf.alpha_pow(gf.log(a)), a);
    EXPECT_EQ(gf.pow(a, 3), gf.mul(a, gf.mul(a, a)));
  }
}

TEST(Gf2Poly, DegreeMultiplyMod) {
  using namespace gf2poly;
  EXPECT_EQ(degree(0), -1);
  EXPECT_EQ(degree(1), 0);
  EXPECT_EQ(degree(0b1011), 3);
  // (x+1)(x+1) = x^2 + 1 over GF(2).
  EXPECT_EQ(multiply(0b11, 0b11), 0b101u);
  // x^3 mod (x^2+1): x^3 = x*(x^2+1) + x -> x.
  EXPECT_EQ(mod(0b1000, 0b101), 0b10u);
}

class BchParamTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BchParamTest, ParityBitsAre6tForGf64) {
  const unsigned t = GetParam();
  BchCode code(6, t, 32);
  // For BCH over GF(2^6) with t <= 4, each odd minimal polynomial has
  // degree 6 (t=5 hits the degree-3 coset of alpha^9).
  if (t <= 4) {
    EXPECT_EQ(code.parity_bits(), 6u * t);
  }
  EXPECT_EQ(code.correct_capability(), t);
}

TEST_P(BchParamTest, CorrectsUpToTErrorsRandomised) {
  const unsigned t = GetParam();
  BchCode code(6, t, 32);
  Rng rng(100 + t);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t data = rng.next_u64() & 0xFFFFFFFFull;
    Bits word = code.encode(data);
    const unsigned nerr = 1 + static_cast<unsigned>(rng.uniform_u64(t));
    std::vector<std::size_t> positions;
    while (positions.size() < nerr) {
      std::size_t p = rng.uniform_u64(code.code_bits());
      if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
        positions.push_back(p);
        word.flip(p);
      }
    }
    auto result = code.decode(word);
    EXPECT_EQ(result.data, data) << "t=" << t << " nerr=" << nerr;
    EXPECT_EQ(result.status, DecodeStatus::Corrected);
    EXPECT_EQ(result.corrected_bits, static_cast<int>(nerr));
  }
}

TEST_P(BchParamTest, CleanWordDecodesOk) {
  BchCode code(6, GetParam(), 32);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t data = rng.next_u64() & 0xFFFFFFFFull;
    auto result = code.decode(code.encode(data));
    EXPECT_EQ(result.status, DecodeStatus::Ok);
    EXPECT_EQ(result.data, data);
  }
}

/// True when decode_words() gives `raw` the data and counters the scalar
/// decode() gives it, and locates it when it is uncorrectable.
bool word_lane_matches_scalar(const BchCode& code, std::uint64_t raw) {
  const DecodeResult ref = code.decode(Bits::from_u64(raw));
  std::uint32_t data = 0;
  BatchDecodeSummary summary;
  std::uint32_t at = 7;
  code.decode_words(&raw, 1, &data, summary, &at);
  const bool corrected = ref.status == DecodeStatus::Corrected;
  const bool uncorrectable = ref.status == DecodeStatus::DetectedUncorrectable;
  return data == static_cast<std::uint32_t>(ref.data) &&
         summary.corrected_words == (corrected ? 1u : 0u) &&
         summary.corrected_bits ==
             (corrected ? static_cast<std::uint64_t>(ref.corrected_bits) : 0u) &&
         summary.uncorrectable_words == (uncorrectable ? 1u : 0u) &&
         at == (uncorrectable ? 0u : 7u);
}

TEST_P(BchParamTest, WordLanesMatchScalarCodec) {
  const BchCode code(6, GetParam(), 32);
  const unsigned t = GetParam();
  Rng rng(200 + t);
  std::vector<std::uint32_t> data(300);
  for (auto& d : data) d = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint64_t> raw(data.size());
  code.encode_words(data.data(), data.size(), raw.data());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(raw[i], code.encode(data[i]).word(0)) << "t=" << t << " i=" << i;
    // Up to t + 1 random flips: clean, correctable and beyond.
    std::uint64_t word = raw[i];
    const std::uint64_t flips = rng.uniform_u64(t + 2);
    for (std::uint64_t f = 0; f < flips; ++f)
      word ^= std::uint64_t{1} << rng.uniform_u64(code.code_bits());
    EXPECT_TRUE(word_lane_matches_scalar(code, word))
        << "t=" << t << " raw=" << std::hex << word;
  }
}

INSTANTIATE_TEST_SUITE_P(CorrectionStrengths, BchParamTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Bch, OceanBufferCodeShape) {
  BchCode code = ocean_buffer_code();
  EXPECT_EQ(code.data_bits(), 32u);
  EXPECT_EQ(code.correct_capability(), 4u);  // quadruple correction
  EXPECT_EQ(code.code_bits(), 56u);          // shortened BCH(63,39)
}

TEST(Bch, QuintupleErrorsDefeatTheBufferCode) {
  // The paper: "in OCEAN a quintuple (5 bits) error is needed for
  // system failure" — with t=4, 5-bit errors must not decode cleanly.
  BchCode code = ocean_buffer_code();
  Rng rng(9);
  int undetected_corruption = 0, handled = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t data = rng.next_u64() & 0xFFFFFFFFull;
    Bits word = code.encode(data);
    std::vector<std::size_t> positions;
    while (positions.size() < 5) {
      std::size_t p = rng.uniform_u64(code.code_bits());
      if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
        positions.push_back(p);
        word.flip(p);
      }
    }
    auto result = code.decode(word);
    if (result.status == DecodeStatus::DetectedUncorrectable) {
      ++handled;  // detected (would trigger a higher-level response)
    } else if (result.data != data) {
      ++undetected_corruption;  // the genuine failure mode
    }
  }
  // Most quintuples are at least detected, but silent corruption exists:
  // that residue is what the FIT <= 1e-15 budget constrains.
  EXPECT_GT(handled, 500);
  EXPECT_GT(undetected_corruption, 0);
}

TEST(Bch, GeneratorDividesCodewords) {
  BchCode code(6, 2, 32);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::uint64_t data = rng.next_u64() & 0xFFFFFFFFull;
    Bits word = code.encode(data);
    // Pack the codeword into a GF(2) polynomial and check g | c.
    std::uint64_t c = 0;
    for (std::size_t j = 0; j < code.code_bits(); ++j)
      c |= static_cast<std::uint64_t>(word.get(j)) << j;
    EXPECT_EQ(gf2poly::mod(c, code.generator()), 0u);
  }
}

TEST(Bch, WorksOverLargerFields) {
  BchCode code(8, 3, 64);  // shortened BCH over GF(256)
  Rng rng(13);
  std::uint64_t data = rng.next_u64();
  Bits word = code.encode(data);
  word.flip(3);
  word.flip(40);
  word.flip(70);
  auto result = code.decode(word);
  EXPECT_EQ(result.data, data);
  EXPECT_EQ(result.corrected_bits, 3);
}

// decode_words screens clean words with a parity recomputation and
// hands only the rest to decode(); against decode() itself it must be
// indistinguishable on every error OCEAN's buffer code guarantees to
// correct, and agree on the verdict beyond.  The 396,606 errors of 1-4
// bits are split four ways by their lowest flipped bit (mod 4) to keep
// each case short.
class BchExhaustiveTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BchExhaustiveTest, DecodeWordsMatchesScalarOnEveryErrorUpToFourBits) {
  const BchCode code = ocean_buffer_code();
  const std::size_t n = code.code_bits();
  const std::uint64_t clean = code.encode(0xC0DE5EEDu).word(0);
  ASSERT_TRUE(word_lane_matches_scalar(code, clean));
  std::uint64_t patterns = 0, expected = 0, mismatches = 0, first_mismatch = 0;
  const auto check = [&](std::uint64_t error) {
    ++patterns;
    if (!word_lane_matches_scalar(code, clean ^ error) && mismatches++ == 0)
      first_mismatch = error;
  };
  for (std::size_t a = GetParam(); a < n; a += 4) {
    const std::uint64_t above = n - 1 - a;  // bits free above the lowest
    expected += 1 + above + above * (above - 1) / 2 +
                above * (above - 1) * (above - 2) / 6;
    const std::uint64_t ea = std::uint64_t{1} << a;
    check(ea);
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::uint64_t eb = ea | std::uint64_t{1} << b;
      check(eb);
      for (std::size_t c = b + 1; c < n; ++c) {
        const std::uint64_t ec = eb | std::uint64_t{1} << c;
        check(ec);
        for (std::size_t d = c + 1; d < n; ++d)
          check(ec | std::uint64_t{1} << d);
      }
    }
  }
  EXPECT_EQ(patterns, expected);
  EXPECT_EQ(mismatches, 0u) << "first mismatching error " << std::hex
                            << first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(LowestErrorBitMod4, BchExhaustiveTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(BchWordLanes, DecodeMatchesScalarOnSampledFiveBitErrors) {
  const BchCode code = ocean_buffer_code();
  const std::uint64_t clean = code.encode(0x0BADF00Du).word(0);
  Rng rng(5);
  int detected = 0, miscorrected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::uint64_t error = 0;
    while (std::popcount(error) < 5)
      error |= std::uint64_t{1} << rng.uniform_u64(code.code_bits());
    const std::uint64_t raw = clean ^ error;
    ASSERT_TRUE(word_lane_matches_scalar(code, raw))
        << "error " << std::hex << error;
    const DecodeResult ref = code.decode(Bits::from_u64(raw));
    if (ref.status == DecodeStatus::DetectedUncorrectable) ++detected;
    if (ref.status == DecodeStatus::Corrected && ref.data != 0x0BADF00Du)
      ++miscorrected;
  }
  // Both verdicts beyond t occur in the sample.
  EXPECT_GT(detected, 0);
  EXPECT_GT(miscorrected, 0);
}

TEST(BchWordLanesDeathTest, RejectCodesWiderThanOneWord) {
  // BCH(88,64,t=3) codewords do not fit a raw word.
  const BchCode code(8, 3, 64);
  ASSERT_EQ(code.code_bits(), 88u);
  std::uint32_t data = 1;
  std::uint64_t raw = 0;
  BatchDecodeSummary summary;
  EXPECT_DEATH(code.encode_words(&data, 1, &raw), "code_bits\\(\\) <= 64");
  EXPECT_DEATH(code.decode_words(&raw, 1, &data, summary),
               "code_bits\\(\\) <= 64");
}

}  // namespace
}  // namespace ntc::ecc
