// Conformance suite: every BlockCode in the library must honour the
// interface contract — clean round trips, guaranteed correction of any
// <= t errors, and (for codes that claim it) detection beyond t.
// Parameterised over the whole code family.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "ecc/bch.hpp"
#include "ecc/hamming.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/interleave.hpp"

namespace ntc::ecc {
namespace {

struct CodeCase {
  std::string label;
  std::function<std::unique_ptr<BlockCode>()> make;
};

/// A CodeCase that prints as its label.  gtest copies a parameter's
/// printout into every ctest name, and a bare CodeCase prints its raw
/// bytes, which start with a heap address and so change on every build.
struct LabeledCodeCase : CodeCase {};

std::ostream& operator<<(std::ostream& os, const LabeledCodeCase& c) {
  return os << c.label;
}

template <typename Case>
class CodeFixture : public ::testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<BlockCode> code_ = this->GetParam().make();

  std::uint64_t random_data(Rng& rng) const {
    const std::size_t k = code_->data_bits();
    return rng.next_u64() & (k == 64 ? ~0ull : ((1ull << k) - 1));
  }
};

using BlockCodeConformance = CodeFixture<CodeCase>;
using BlockCodeBasics = CodeFixture<LabeledCodeCase>;

TEST_P(BlockCodeBasics, ParameterSanity) {
  EXPECT_GE(code_->data_bits(), 8u);
  EXPECT_LE(code_->data_bits(), 64u);
  EXPECT_GT(code_->code_bits(), code_->data_bits());
  EXPECT_LE(code_->code_bits(), Bits::kCapacity);
  EXPECT_GE(code_->correct_capability(), 1u);
  EXPECT_GE(code_->detect_capability(), code_->correct_capability());
  EXPECT_GT(code_->overhead(), 1.0);
  EXPECT_FALSE(code_->name().empty());
}

TEST_P(BlockCodeBasics, CleanRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t data = random_data(rng);
    const DecodeResult result = code_->decode(code_->encode(data));
    ASSERT_EQ(result.data, data);
    ASSERT_EQ(result.status, DecodeStatus::Ok);
    ASSERT_EQ(result.corrected_bits, 0);
  }
}

TEST_P(BlockCodeBasics, CorrectsGuaranteedErrorWeights) {
  Rng rng(17);
  const auto t = code_->correct_capability();
  for (std::size_t weight = 1; weight <= t; ++weight) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t data = random_data(rng);
      Bits word = code_->encode(data);
      std::vector<std::size_t> positions;
      while (positions.size() < weight) {
        const std::size_t p = rng.uniform_u64(code_->code_bits());
        if (std::find(positions.begin(), positions.end(), p) ==
            positions.end()) {
          positions.push_back(p);
          word.flip(p);
        }
      }
      const DecodeResult result = code_->decode(word);
      ASSERT_EQ(result.data, data)
          << GetParam().label << " weight=" << weight;
      ASSERT_EQ(result.status, DecodeStatus::Corrected);
      ASSERT_EQ(result.corrected_bits, static_cast<int>(weight));
    }
  }
}

TEST_P(BlockCodeBasics, EncodeIsDeterministicAndInjective) {
  Rng rng(13);
  const std::uint64_t a = random_data(rng);
  std::uint64_t b;
  do {
    b = random_data(rng);
  } while (b == a);
  EXPECT_EQ(code_->encode(a), code_->encode(a));
  EXPECT_FALSE(code_->encode(a) == code_->encode(b));
}

TEST_P(BlockCodeConformance, NeverSilentlyWrongWithinDetectionRadius) {
  // Up to detect_capability() errors must never yield wrong data with
  // an Ok/Corrected verdict.
  Rng rng(19);
  const auto detect = code_->detect_capability();
  for (std::size_t weight = 1; weight <= detect; ++weight) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t data = random_data(rng);
      Bits word = code_->encode(data);
      std::vector<std::size_t> positions;
      while (positions.size() < weight) {
        const std::size_t p = rng.uniform_u64(code_->code_bits());
        if (std::find(positions.begin(), positions.end(), p) ==
            positions.end()) {
          positions.push_back(p);
          word.flip(p);
        }
      }
      const DecodeResult result = code_->decode(word);
      if (result.status != DecodeStatus::DetectedUncorrectable) {
        ASSERT_EQ(result.data, data)
            << GetParam().label << " weight=" << weight
            << ": silent corruption inside the detection radius";
      }
    }
  }
}

std::vector<CodeCase> all_codes() {
  return {
      CodeCase{"Hamming8", [] { return std::make_unique<HammingSecded>(8); }},
      CodeCase{"Hamming16", [] { return std::make_unique<HammingSecded>(16); }},
      CodeCase{"Hamming32", [] { return std::make_unique<HammingSecded>(32); }},
      CodeCase{"Hamming48", [] { return std::make_unique<HammingSecded>(48); }},
      CodeCase{"Hamming64", [] { return std::make_unique<HammingSecded>(64); }},
      CodeCase{"Hsiao16", [] { return std::make_unique<HsiaoSecded>(16); }},
      CodeCase{"Hsiao32", [] { return std::make_unique<HsiaoSecded>(32); }},
      CodeCase{"Hsiao64", [] { return std::make_unique<HsiaoSecded>(64); }},
      CodeCase{"Bch_t1", [] { return std::make_unique<BchCode>(6, 1, 32); }},
      CodeCase{"Bch_t2", [] { return std::make_unique<BchCode>(6, 2, 32); }},
      CodeCase{"Bch_t3", [] { return std::make_unique<BchCode>(6, 3, 32); }},
      CodeCase{"Bch_t4", [] { return std::make_unique<BchCode>(6, 4, 32); }},
      CodeCase{"Bch_t5", [] { return std::make_unique<BchCode>(6, 5, 32); }},
      CodeCase{"Bch_gf256_t3",
               [] { return std::make_unique<BchCode>(8, 3, 64); }},
      CodeCase{"Interleaved4x16", [] {
                 return std::make_unique<InterleavedCode>(
                     interleaved_secded_4x16());
               }}};
}

std::vector<LabeledCodeCase> all_labeled_codes() {
  std::vector<LabeledCodeCase> labeled;
  for (CodeCase& c : all_codes())
    labeled.push_back(LabeledCodeCase{std::move(c)});
  return labeled;
}

INSTANTIATE_TEST_SUITE_P(AllCodes, BlockCodeBasics,
                         ::testing::ValuesIn(all_labeled_codes()),
                         [](const auto& info) { return info.param.label; });
INSTANTIATE_TEST_SUITE_P(AllCodes, BlockCodeConformance,
                         ::testing::ValuesIn(all_codes()),
                         [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace ntc::ecc
