// Codec microbenchmarks (google-benchmark): encode/decode throughput of
// every protection code in the library.  Backs the paper's
// "low-overhead run-time scheme" claim from the software side and
// quantifies the BCH decode cost OCEAN pays only on restores.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "ecc/bch.hpp"
#include "ecc/crc.hpp"
#include "ecc/hamming.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/interleave.hpp"

namespace {

using namespace ntc;
using namespace ntc::ecc;

template <class Code>
void encode_loop(benchmark::State& state, const Code& code) {
  Rng rng(1);
  std::uint64_t data = rng.next_u64() & ((1ull << code.data_bits()) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(data));
    data = (data * 6364136223846793005ull + 1) & ((1ull << code.data_bits()) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

template <class Code>
void decode_loop(benchmark::State& state, const Code& code, int errors) {
  Rng rng(2);
  Bits word = code.encode(0x1234ABCDull & ((1ull << code.data_bits()) - 1));
  std::vector<std::size_t> positions;
  for (int e = 0; e < errors; ++e) {
    std::size_t p;
    do {
      p = rng.uniform_u64(code.code_bits());
    } while (std::find(positions.begin(), positions.end(), p) != positions.end());
    positions.push_back(p);
    word.flip(p);
  }
  for (auto _ : state) benchmark::DoNotOptimize(code.decode(word));
  state.SetItemsProcessed(state.iterations());
}

/// The burst-path lanes over one 256-word chunk (EccMemory's codec
/// chunk), clean codewords: encode_words, then decode_words of its
/// output.
constexpr std::size_t kLaneWords = 256;

std::vector<std::uint32_t> lane_data() {
  Rng rng(4);
  std::vector<std::uint32_t> data(kLaneWords);
  for (auto& d : data) d = static_cast<std::uint32_t>(rng.next_u64());
  return data;
}

void encode_words_loop(benchmark::State& state, const BlockCode& code) {
  const std::vector<std::uint32_t> data = lane_data();
  std::vector<std::uint64_t> raw(kLaneWords);
  for (auto _ : state) {
    code.encode_words(data.data(), kLaneWords, raw.data());
    benchmark::DoNotOptimize(raw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kLaneWords);
}

void decode_words_loop(benchmark::State& state, const BlockCode& code) {
  const std::vector<std::uint32_t> data = lane_data();
  std::vector<std::uint64_t> raw(kLaneWords);
  code.encode_words(data.data(), kLaneWords, raw.data());
  std::vector<std::uint32_t> out(kLaneWords);
  BatchDecodeSummary summary;
  for (auto _ : state) {
    code.decode_words(raw.data(), kLaneWords, out.data(), summary);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kLaneWords);
}

void BM_SecdedEncode(benchmark::State& state) {
  HammingSecded code(32);
  encode_loop(state, code);
}
void BM_SecdedDecodeClean(benchmark::State& state) {
  HammingSecded code(32);
  decode_loop(state, code, 0);
}
void BM_SecdedDecodeCorrect(benchmark::State& state) {
  HammingSecded code(32);
  decode_loop(state, code, 1);
}
void BM_HsiaoEncode(benchmark::State& state) {
  HsiaoSecded code(32);
  encode_loop(state, code);
}
void BM_HsiaoDecodeCorrect(benchmark::State& state) {
  HsiaoSecded code(32);
  decode_loop(state, code, 1);
}
void BM_BchEncode(benchmark::State& state) {
  BchCode code = ocean_buffer_code();
  encode_loop(state, code);
}
void BM_BchDecodeClean(benchmark::State& state) {
  BchCode code = ocean_buffer_code();
  decode_loop(state, code, 0);
}
void BM_BchDecodeT(benchmark::State& state) {
  BchCode code = ocean_buffer_code();
  decode_loop(state, code, static_cast<int>(state.range(0)));
}
void BM_SecdedEncodeWords256(benchmark::State& state) {
  encode_words_loop(state, HammingSecded(32));
}
void BM_SecdedDecodeWords256(benchmark::State& state) {
  decode_words_loop(state, HammingSecded(32));
}
void BM_BchEncodeWords256(benchmark::State& state) {
  encode_words_loop(state, ocean_buffer_code());
}
void BM_BchDecodeWords256(benchmark::State& state) {
  decode_words_loop(state, ocean_buffer_code());
}
void BM_InterleavedDecodeBurst4(benchmark::State& state) {
  InterleavedCode code = interleaved_secded_4x16();
  Bits word = code.encode(0xFEEDFACEDEADBEEFull);
  for (int i = 0; i < 4; ++i) word.flip(20 + i);
  for (auto _ : state) benchmark::DoNotOptimize(code.decode(word));
}
void BM_Crc32Chunk(benchmark::State& state) {
  Crc32 crc;
  Rng rng(3);
  std::vector<std::uint32_t> chunk(static_cast<std::size_t>(state.range(0)));
  for (auto& w : chunk) w = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) benchmark::DoNotOptimize(crc.compute_words(chunk));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}

BENCHMARK(BM_SecdedEncode);
BENCHMARK(BM_SecdedDecodeClean);
BENCHMARK(BM_SecdedDecodeCorrect);
BENCHMARK(BM_HsiaoEncode);
BENCHMARK(BM_HsiaoDecodeCorrect);
BENCHMARK(BM_BchEncode);
BENCHMARK(BM_BchDecodeClean);
BENCHMARK(BM_BchDecodeT)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_SecdedEncodeWords256);
BENCHMARK(BM_SecdedDecodeWords256);
BENCHMARK(BM_BchEncodeWords256);
BENCHMARK(BM_BchDecodeWords256);
BENCHMARK(BM_InterleavedDecodeBurst4);
BENCHMARK(BM_Crc32Chunk)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
