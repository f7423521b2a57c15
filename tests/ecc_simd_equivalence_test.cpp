// Exhaustive equivalence of the AVX2 (39,32) SECDED word kernels
// against their scalar twins across the sim::set_simd_enabled kill
// switch.  The scalar kernels are themselves proven against the
// bit-serial reference in ecc_test; this suite closes the remaining
// link: for every 0-, 1- and 2-bit error pattern on a codeword (and
// for long mixed buffers at every count alignment), decode_words and
// encode_words return identical data, counters and ordering whichever
// way the dispatch goes.  On non-AVX2 hosts both runs take the scalar
// path and the suite degenerates to a self-consistency check.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "ecc/hamming.hpp"
#include "ecc/hsiao.hpp"

namespace ntc::ecc {
namespace {

/// Restore the process-global kill-switch whatever a test does.
struct SimdSwitchGuard {
  bool prev = sim::simd_enabled();
  ~SimdSwitchGuard() { sim::set_simd_enabled(prev); }
};

struct DecodeRun {
  std::vector<std::uint32_t> data;
  BatchDecodeSummary summary;
  std::vector<std::uint32_t> uncorrectable_at;
};

DecodeRun decode_with(const BlockCode& code, bool simd_on,
                      const std::vector<std::uint64_t>& raw) {
  SimdSwitchGuard guard;
  sim::set_simd_enabled(simd_on);
  DecodeRun run;
  run.data.resize(raw.size());
  run.uncorrectable_at.resize(raw.size());
  code.decode_words(raw.data(), raw.size(), run.data.data(), run.summary,
                    run.uncorrectable_at.data());
  run.uncorrectable_at.resize(run.summary.uncorrectable_words);
  return run;
}

void expect_same_decode(const BlockCode& code,
                        const std::vector<std::uint64_t>& raw,
                        const char* label) {
  const DecodeRun on = decode_with(code, true, raw);
  const DecodeRun off = decode_with(code, false, raw);
  EXPECT_EQ(on.data, off.data) << label;
  EXPECT_EQ(on.summary.corrected_words, off.summary.corrected_words) << label;
  EXPECT_EQ(on.summary.corrected_bits, off.summary.corrected_bits) << label;
  EXPECT_EQ(on.summary.uncorrectable_words, off.summary.uncorrectable_words)
      << label;
  // Where the uncorrectable words were: the BlockCode default, which
  // classifies each word through decode_batch, is the reference.
  std::vector<std::uint32_t> data(raw.size());
  BatchDecodeSummary summary;
  std::vector<std::uint32_t> at(raw.size());
  code.BlockCode::decode_words(raw.data(), raw.size(), data.data(), summary,
                               at.data());
  at.resize(summary.uncorrectable_words);
  EXPECT_EQ(on.uncorrectable_at, at) << label;
  EXPECT_EQ(off.uncorrectable_at, at) << label;
}

/// Every 0/1/2-bit error pattern over the 39 codeword positions applied
/// to a handful of base words: 1 + 39 + C(39,2) = 781 words per base.
std::vector<std::uint64_t> exhaustive_patterns(const BlockCode& code,
                                               std::uint32_t base_data) {
  std::vector<std::uint64_t> raw;
  std::uint64_t clean;
  code.encode_words(&base_data, 1, &clean);
  raw.push_back(clean);
  const std::size_t n = code.code_bits();
  for (std::size_t a = 0; a < n; ++a)
    raw.push_back(clean ^ (std::uint64_t{1} << a));
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      raw.push_back(clean ^ (std::uint64_t{1} << a) ^ (std::uint64_t{1} << b));
  return raw;
}

template <class Codec>
void exhaustive_suite() {
  const Codec code(32);
  ASSERT_EQ(code.code_bits(), 39u);
  for (const std::uint32_t base :
       {0u, 0xFFFFFFFFu, 0xA5A5A5A5u, 0x12345678u, 0x80000001u}) {
    const std::vector<std::uint64_t> raw = exhaustive_patterns(code, base);
    expect_same_decode(code, raw, "bulk buffer");
    // Word-at-a-time too: the clean-span protocol must behave at the
    // shortest possible count.
    for (const std::uint64_t w : raw)
      expect_same_decode(code, {w}, "single word");
  }
}

TEST(EccSimdEquivalence, HsiaoExhaustiveErrorPatterns) {
  exhaustive_suite<HsiaoSecded>();
}

TEST(EccSimdEquivalence, HammingExhaustiveErrorPatterns) {
  exhaustive_suite<HammingSecded>();
}

template <class Codec>
void mixed_buffer_suite() {
  const Codec code(32);
  Rng rng(0x5EEDED);
  // Long buffers mixing clean, correctable and uncorrectable words at
  // every count alignment around the 8-word vector block, so the
  // clean-span handoff is exercised at each possible tail length.
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{64}, std::size_t{257}, std::size_t{1000}}) {
    std::vector<std::uint32_t> data(count);
    for (auto& d : data) d = static_cast<std::uint32_t>(rng.next_u64());
    std::vector<std::uint64_t> raw(count);
    {
      SimdSwitchGuard guard;
      sim::set_simd_enabled(false);
      code.encode_words(data.data(), count, raw.data());
    }
    for (std::size_t i = 0; i < count; ++i) {
      switch (i % 5) {
        case 1:  // single-bit error, correctable
          raw[i] ^= std::uint64_t{1} << rng.uniform_u64(39);
          break;
        case 3: {  // double-bit error, detected-uncorrectable
          const std::uint64_t a = rng.uniform_u64(39);
          const std::uint64_t b = (a + 1 + rng.uniform_u64(38)) % 39;
          raw[i] ^= (std::uint64_t{1} << a) ^ (std::uint64_t{1} << b);
          break;
        }
        default:  // clean
          break;
      }
    }
    expect_same_decode(code, raw, "mixed buffer");
  }
}

TEST(EccSimdEquivalence, HsiaoMixedBuffersAtEveryAlignment) {
  mixed_buffer_suite<HsiaoSecded>();
}

TEST(EccSimdEquivalence, HammingMixedBuffersAtEveryAlignment) {
  mixed_buffer_suite<HammingSecded>();
}

template <class Codec>
void encode_suite() {
  const Codec code(32);
  Rng rng(0xE2C0DE);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{100}, std::size_t{1021}}) {
    std::vector<std::uint32_t> data(count);
    for (auto& d : data) d = static_cast<std::uint32_t>(rng.next_u64());
    std::vector<std::uint64_t> raw_on(count), raw_off(count);
    SimdSwitchGuard guard;
    sim::set_simd_enabled(true);
    code.encode_words(data.data(), count, raw_on.data());
    sim::set_simd_enabled(false);
    code.encode_words(data.data(), count, raw_off.data());
    EXPECT_EQ(raw_on, raw_off) << "count=" << count;
    // And both must decode back clean to the original data.
    std::vector<std::uint32_t> round(count);
    BatchDecodeSummary summary;
    code.decode_words(raw_on.data(), count, round.data(), summary);
    EXPECT_EQ(round, data) << "count=" << count;
    EXPECT_EQ(summary.corrected_words, 0u);
    EXPECT_EQ(summary.uncorrectable_words, 0u);
  }
}

TEST(EccSimdEquivalence, HsiaoEncodeWordsMatchesScalar) {
  encode_suite<HsiaoSecded>();
}

TEST(EccSimdEquivalence, HammingEncodeWordsMatchesScalar) {
  encode_suite<HammingSecded>();
}

}  // namespace
}  // namespace ntc::ecc
