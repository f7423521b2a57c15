#include "multitile/banked_memory.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "sim/fault_draw.hpp"

namespace ntc::multitile {

namespace {

/// Words staged per pass of a burst (the shared memory's codec chunk).
constexpr std::uint32_t kBurstChunk = 256;

bool is_power_of_two(std::uint32_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::uint32_t ilog2(std::uint32_t n) {
  std::uint32_t l = 0;
  while ((std::uint32_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

BankedMemory::BankedMemory(BankedMemoryConfig config)
    : config_(std::move(config)), shift_(ilog2(config_.banks)) {
  NTC_REQUIRE(is_power_of_two(config_.banks));
  NTC_REQUIRE(config_.interleave_words >= 1);
  NTC_REQUIRE(config_.total_words %
                  (config_.banks * config_.interleave_words) ==
              0);
  NTC_REQUIRE(config_.stored_bits >= 32 && config_.stored_bits <= 64);
  const std::uint32_t per_bank = config_.total_words / config_.banks;
  banks_.reserve(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    // Bank 0 of a 1-bank memory IS the classic scratchpad: same name,
    // geometry and RNG stream as Platform's "spm" array.
    const std::string name =
        config_.banks == 1 ? "spm" : "bank" + std::to_string(b);
    energy::MemoryCalculator calc(config_.style,
                                  energy::MemoryGeometry{per_bank, 32});
    banks_.push_back(std::make_unique<sim::SramModule>(
        name, per_bank, config_.stored_bits, calc.access_model(),
        calc.retention_model(), config_.vdd,
        sim::array_stream(config_.seed, sim::ArrayKind::Spm, b),
        config_.inject_faults, config_.tables));
  }
  bank_of_.resize(config_.total_words);
  for (std::uint32_t w = 0; w < config_.total_words; ++w)
    bank_of_[w] = map(w).bank;
  runs_.resize(config_.banks);
  touched_.reserve(std::min(config_.banks, kBurstChunk));
}

BankAddress BankedMemory::map(std::uint32_t word) const {
  if (config_.banks == 1) return BankAddress{0, word};
  const std::uint32_t g = config_.interleave_words;
  const std::uint32_t block = word / g;
  std::uint32_t folded = block;
  for (std::uint32_t x = block >> shift_; x != 0; x >>= shift_) folded ^= x;
  return BankAddress{folded & (config_.banks - 1),
                     (block / config_.banks) * g + word % g};
}

std::uint64_t BankedMemory::read_raw(std::uint32_t word) {
  const BankAddress a = map(word);
  return banks_[a.bank]->read_raw(a.offset);
}

void BankedMemory::write_raw(std::uint32_t word, std::uint64_t value) {
  const BankAddress a = map(word);
  banks_[a.bank]->write_raw(a.offset, value);
}

void BankedMemory::plan_runs(std::uint32_t word, std::uint32_t count) {
  for (const std::uint32_t b : touched_) runs_[b].count = 0;
  touched_.clear();
  for (std::uint32_t w = word; w < word + count; ++w) {
    const std::uint32_t b = bank_of_[w];
    BankRun& run = runs_[b];
    if (run.count++ == 0) {
      run.first = map(w).offset;
      touched_.push_back(b);
    }
  }
  std::uint32_t start = 0;
  for (const std::uint32_t b : touched_) {
    runs_[b].start = start;
    start += runs_[b].count;
  }
}

void BankedMemory::read_raw_burst(std::uint32_t word, std::uint64_t* out,
                                  std::uint32_t count) {
  NTC_REQUIRE(static_cast<std::uint64_t>(word) + count <= words());
  std::uint64_t staged[kBurstChunk];
  for (std::uint32_t off = 0; off < count; off += kBurstChunk) {
    const std::uint32_t m = std::min(count - off, kBurstChunk);
    plan_runs(word + off, m);
    for (const std::uint32_t b : touched_)
      banks_[b]->read_raw_burst(runs_[b].first, staged + runs_[b].start,
                                runs_[b].count);
    // Bank b's k-th word in logical order is its burst's k-th word.
    for (std::uint32_t i = 0; i < m; ++i)
      out[off + i] = staged[runs_[bank_of_[word + off + i]].start++];
  }
}

void BankedMemory::write_raw_burst(std::uint32_t word,
                                   const std::uint64_t* values,
                                   std::uint32_t count) {
  NTC_REQUIRE(static_cast<std::uint64_t>(word) + count <= words());
  std::uint64_t staged[kBurstChunk];
  for (std::uint32_t off = 0; off < count; off += kBurstChunk) {
    const std::uint32_t m = std::min(count - off, kBurstChunk);
    plan_runs(word + off, m);
    for (std::uint32_t i = 0; i < m; ++i)
      staged[runs_[bank_of_[word + off + i]].start++] = values[off + i];
    for (const std::uint32_t b : touched_)
      banks_[b]->write_raw_burst(runs_[b].first,
                                 staged + runs_[b].start - runs_[b].count,
                                 runs_[b].count);
  }
}

void BankedMemory::reset(std::uint64_t seed, Volt vdd) {
  config_.seed = seed;
  config_.vdd = vdd;
  for (std::uint32_t b = 0; b < config_.banks; ++b)
    banks_[b]->reset(vdd, sim::array_stream(seed, sim::ArrayKind::Spm, b));
}

void BankedMemory::set_vdd(Volt vdd) {
  config_.vdd = vdd;
  for (auto& bank : banks_) bank->set_vdd(vdd);
}

void BankedMemory::reset_stats() {
  for (auto& bank : banks_) bank->reset_stats();
}

}  // namespace ntc::multitile
