#include "multitile/tiled_platform.hpp"

#include <string>

#include "common/assert.hpp"
#include "ecc/bch.hpp"
#include "ecc/hamming.hpp"
#include "sim/fault_draw.hpp"

namespace ntc::multitile {

namespace {

bool is_power_of_two(std::uint32_t n) { return n != 0 && (n & (n - 1)) == 0; }

const std::shared_ptr<const ecc::BlockCode>& tile_secded_code() {
  static const std::shared_ptr<const ecc::BlockCode> code =
      std::make_shared<ecc::HammingSecded>(32);
  return code;
}

const std::shared_ptr<const ecc::BlockCode>& tile_bch_code() {
  static const std::shared_ptr<const ecc::BlockCode> code =
      std::make_shared<ecc::BchCode>(ecc::ocean_buffer_code());
  return code;
}

BankedMemoryConfig bank_config_for(const TiledPlatformConfig& config) {
  BankedMemoryConfig bank;
  bank.total_words = config.shared_bytes / 4;
  bank.banks = config.banks;
  bank.interleave_words = config.interleave_words;
  bank.stored_bits = SharedMemory::required_stored_bits(config.tile_schemes);
  bank.style = config.memory_style;
  bank.vdd = config.vdd;
  bank.seed = config.seed;
  bank.inject_faults = config.inject_faults;
  bank.tables = config.tables;
  return bank;
}

}  // namespace

TiledPlatform::TiledPlatform(TiledPlatformConfig config)
    : config_(std::move(config)),
      shared_(bank_config_for(config_), config_.tile_schemes),
      arbiter_(ArbiterConfig{
          static_cast<std::uint32_t>(config_.tile_schemes.size()),
          config_.banks, config_.arbitration, config_.arbitration_latency}) {
  NTC_REQUIRE(is_power_of_two(
      static_cast<std::uint32_t>(config_.tile_schemes.size())));
  NTC_REQUIRE(config_.imem_bytes % 4 == 0 && config_.shared_bytes % 4 == 0);
  NTC_REQUIRE(config_.vdd.value > 0.0 && config_.clock.value > 0.0);
  const std::uint32_t tiles =
      static_cast<std::uint32_t>(config_.tile_schemes.size());
  tiles_.resize(tiles);
  for (std::uint32_t t = 0; t < tiles; ++t) {
    const mitigation::SchemeKind kind = config_.tile_schemes[t];
    const bool protected_imem = kind != mitigation::SchemeKind::NoMitigation;
    // I-mem: SECDED under both ECC and OCEAN, exactly as the classic
    // platform builds it (fetches must at least detect).
    tiles_[t].imem = make_private_memory(
        tiles == 1 ? "imem" : "imem" + std::to_string(t), config_.imem_bytes,
        protected_imem
            ? static_cast<std::uint32_t>(tile_secded_code()->code_bits())
            : 32,
        protected_imem ? tile_secded_code() : nullptr,
        sim::array_stream(config_.seed, sim::ArrayKind::Imem, t));
    if (kind == mitigation::SchemeKind::Ocean) {
      tiles_[t].pm = make_private_memory(
          tiles == 1 ? "pm" : "pm" + std::to_string(t), config_.pm_bytes,
          static_cast<std::uint32_t>(tile_bch_code()->code_bits()),
          tile_bch_code(),
          sim::array_stream(config_.seed, sim::ArrayKind::Pm, t));
    }
    tiles_[t].link = std::make_unique<TileLink>(shared_, arbiter_, t);
  }
}

std::unique_ptr<sim::EccMemory> TiledPlatform::make_private_memory(
    const std::string& name, std::uint32_t bytes, std::uint32_t stored_bits,
    std::shared_ptr<const ecc::BlockCode> code, Rng stream) {
  energy::MemoryCalculator calc(config_.memory_style,
                                energy::MemoryGeometry{bytes / 4, 32});
  auto array = std::make_unique<sim::SramModule>(
      name, bytes / 4, stored_bits, calc.access_model(), calc.retention_model(),
      config_.vdd, stream, config_.inject_faults, config_.tables);
  return std::make_unique<sim::EccMemory>(std::move(array), std::move(code));
}

void TileLink::log_range(std::uint32_t word, std::uint32_t count) {
  const BankedMemory& banks = shared_.banks();
  if (banks.bank_count() == 1) {
    arbiter_.log_access(tile_, 0, count);
    return;
  }
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint32_t bank = banks.bank_of(word + i);
    std::uint32_t run = 1;
    while (i + run < count && banks.bank_of(word + i + run) == bank) ++run;
    arbiter_.log_access(tile_, bank, run);
    i += run;
  }
}

sim::AccessStatus TileLink::read_burst_counted(std::uint32_t word_index,
                                               std::span<std::uint32_t> data,
                                               std::uint64_t& uncorrectable) {
  const std::uint32_t n = static_cast<std::uint32_t>(data.size());
  log_range(word_index, n);
  const sim::AccessStatus status =
      shared_.read_burst_located(word_index, data, uncorrectable_at_);
  uncorrectable = uncorrectable_at_.size();
  for (const std::uint32_t i : uncorrectable_at_)
    if (i + 1 < n) log_range(word_index + i + 1, n - i - 1);
  return status;
}

void TiledPlatform::add_compute_cycles(std::uint32_t t, std::uint64_t cycles,
                                       double fetches_per_cycle) {
  NTC_REQUIRE(fetches_per_cycle >= 0.0);
  arbiter_.add_compute(t, cycles);
  tiles_[t].compute_cycles += cycles;
  tiles_[t].fetches += static_cast<std::uint64_t>(fetches_per_cycle *
                                                  static_cast<double>(cycles));
}

void TiledPlatform::barrier() { makespan_ += arbiter_.end_epoch(); }

std::uint64_t TiledPlatform::total_cycles() const {
  return makespan_ + arbiter_.pending_compute_max();
}

void TiledPlatform::reset(std::uint64_t seed, Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  config_.seed = seed;
  config_.vdd = vdd;
  shared_.reset(seed, vdd);
  for (std::uint32_t t = 0; t < tile_count(); ++t) {
    tiles_[t].imem->array().reset(
        vdd, sim::array_stream(seed, sim::ArrayKind::Imem, t));
    tiles_[t].imem->reset_stats();
    if (tiles_[t].pm) {
      tiles_[t].pm->array().reset(
          vdd, sim::array_stream(seed, sim::ArrayKind::Pm, t));
      tiles_[t].pm->reset_stats();
    }
    tiles_[t].compute_cycles = 0;
    tiles_[t].fetches = 0;
  }
  arbiter_.reset();
  makespan_ = 0;
}

void TiledPlatform::set_vdd(Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  config_.vdd = vdd;
  shared_.set_vdd(vdd);
  for (auto& tile : tiles_) {
    tile.imem->array().set_vdd(vdd);
    if (tile.pm) tile.pm->array().set_vdd(vdd);
  }
}

}  // namespace ntc::multitile
