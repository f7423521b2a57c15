#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ecc/bch.hpp"
#include "ecc/codec_overhead.hpp"
#include "ecc/crc.hpp"
#include "ecc/hamming.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/interleave.hpp"
#include "tech/node.hpp"

namespace ntc::ecc {
namespace {

TEST(Crc32, KnownVector) {
  Crc32 crc;
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc.compute(check), 0xCBF43926u);  // the canonical check value
}

TEST(Crc32, EmptyInput) {
  Crc32 crc;
  EXPECT_EQ(crc.compute({}), 0x00000000u);
}

TEST(Crc32, DetectsSingleBitFlipsInWords) {
  Crc32 crc;
  Rng rng(1);
  std::vector<std::uint32_t> words(64);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
  const std::uint32_t reference = crc.compute_words(words);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = words;
    corrupted[rng.uniform_u64(64)] ^= 1u << rng.uniform_u64(32);
    EXPECT_NE(crc.compute_words(corrupted), reference);
  }
}

TEST(Crc32, WordAndByteInterfacesAgree) {
  Crc32 crc;
  std::vector<std::uint32_t> words{0x04030201u, 0x08070605u};
  std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(crc.compute_words(words), crc.compute(bytes));
  // The word fold against the byte loop on random chunks of 0-1024
  // words, each word's bytes taken low byte first.
  Rng rng(4);
  std::vector<std::size_t> lengths{0, 1, 1024};
  for (int i = 0; i < 20; ++i)
    lengths.push_back(static_cast<std::size_t>(rng.uniform_u64(1025)));
  for (const std::size_t n : lengths) {
    words.resize(n);
    bytes.clear();
    for (auto& w : words) {
      w = static_cast<std::uint32_t>(rng.next_u64());
      for (int b = 0; b < 4; ++b)
        bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    }
    ASSERT_EQ(crc.compute_words(words), crc.compute(bytes)) << "n=" << n;
  }
}

TEST(Interleave, ParametersOf4x16) {
  InterleavedCode code = interleaved_secded_4x16();
  EXPECT_EQ(code.data_bits(), 64u);
  EXPECT_EQ(code.code_bits(), 88u);
  EXPECT_EQ(code.correct_capability(), 1u);       // adversarial same-lane
  EXPECT_EQ(code.burst_correct_capability(), 4u); // spread errors
}

TEST(Interleave, CorrectsFourAdjacentErrors) {
  InterleavedCode code = interleaved_secded_4x16();
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t data = rng.next_u64();
    Bits word = code.encode(data);
    std::size_t start = rng.uniform_u64(code.code_bits() - 3);
    for (std::size_t i = 0; i < 4; ++i) word.flip(start + i);
    auto result = code.decode(word);
    EXPECT_EQ(result.data, data);
    EXPECT_EQ(result.status, DecodeStatus::Corrected);
    EXPECT_EQ(result.corrected_bits, 4);
  }
}

TEST(Interleave, DetectsTwoErrorsInOneLane) {
  InterleavedCode code = interleaved_secded_4x16();
  Rng rng(3);
  std::uint64_t data = rng.next_u64();
  Bits word = code.encode(data);
  // Positions p and p+4*k land in the same lane.
  word.flip(1);
  word.flip(1 + 4 * 7);
  EXPECT_EQ(code.decode(word).status, DecodeStatus::DetectedUncorrectable);
}

TEST(CodecOverhead, StorageOverheadMatchesCode) {
  auto node = tech::node_40nm_lp();
  HammingSecded secded(32);
  auto overhead = estimate_codec_overhead(secded, node);
  EXPECT_NEAR(overhead.storage_overhead, 39.0 / 32.0, 1e-12);
}

TEST(CodecOverhead, BchDecoderCostsMoreThanSecded) {
  auto node = tech::node_40nm_lp();
  HammingSecded secded(32);
  BchCode bch = ocean_buffer_code();
  auto so = estimate_codec_overhead(secded, node);
  auto bo = estimate_codec_overhead(bch, node);
  EXPECT_GT(bo.decode_gate_equiv, so.decode_gate_equiv);
  EXPECT_GT(bo.decode_energy(Volt{0.5}).value,
            so.decode_energy(Volt{0.5}).value);
}

TEST(CodecOverhead, EnergyScalesQuadraticallyWithVoltage) {
  auto node = tech::node_40nm_lp();
  HammingSecded secded(32);
  auto overhead = estimate_codec_overhead(secded, node);
  double e_low = overhead.encode_energy(Volt{0.4}).value;
  double e_high = overhead.encode_energy(Volt{0.8}).value;
  EXPECT_NEAR(e_high / e_low, 4.0, 1e-9);
}

TEST(CodecOverhead, SecdedCodecEnergyIsSmallVsMemoryAccess) {
  // "Low overhead" claim: the (39,32) codec at 0.44 V must cost well
  // under a pJ — small against the ~0.2-2 pJ memory access it guards.
  auto node = tech::node_40nm_lp();
  HammingSecded secded(32);
  auto overhead = estimate_codec_overhead(secded, node);
  EXPECT_LT(overhead.decode_energy(Volt{0.44}).value, 0.5e-12);
}

}  // namespace
}  // namespace ntc::ecc
