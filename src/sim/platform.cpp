#include "sim/platform.hpp"

#include "common/assert.hpp"
#include "ecc/bch.hpp"
#include "ecc/hamming.hpp"
#include "sim/fault_draw.hpp"
#include "tech/node.hpp"

namespace ntc::sim {

namespace {

energy::MemoryGeometry geometry_for(std::uint32_t bytes) {
  return energy::MemoryGeometry{bytes / 4, 32};
}

// Process-wide immutable singletons.  Every platform uses the same two
// codes and codec overheads; the decode/encode paths are const with no
// mutable state, so sharing them across platforms — and across campaign
// worker threads — is safe and spares each construction a BCH table
// build and two codec syntheses.
const std::shared_ptr<const ecc::BlockCode>& shared_secded_code() {
  static const std::shared_ptr<const ecc::BlockCode> code =
      std::make_shared<ecc::HammingSecded>(32);
  return code;
}

const std::shared_ptr<const ecc::BlockCode>& shared_bch_code() {
  static const std::shared_ptr<const ecc::BlockCode> code =
      std::make_shared<ecc::BchCode>(ecc::ocean_buffer_code());
  return code;
}

const ecc::CodecOverhead& shared_secded_overhead() {
  static const ecc::CodecOverhead overhead = ecc::estimate_codec_overhead(
      ecc::HammingSecded(32), tech::node_40nm_lp());
  return overhead;
}

const ecc::CodecOverhead& shared_bch_overhead() {
  static const ecc::CodecOverhead overhead = ecc::estimate_codec_overhead(
      ecc::ocean_buffer_code(), tech::node_40nm_lp());
  return overhead;
}

mitigation::MitigationScheme scheme_for(mitigation::SchemeKind kind) {
  return kind == mitigation::SchemeKind::Secded
             ? mitigation::secded_scheme()
             : kind == mitigation::SchemeKind::Ocean
                   ? mitigation::ocean_scheme()
                   : mitigation::no_mitigation();
}

energy::LogicModel codec_model_for(mitigation::SchemeKind kind) {
  return kind == mitigation::SchemeKind::Ocean
             ? energy::ocean_hw_logic_40nm()
             : energy::secded_codec_logic_40nm();
}

}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      scheme_(scheme_for(config_.scheme)),
      imem_calc_(config_.memory_style, geometry_for(config_.imem_bytes)),
      spm_calc_(config_.memory_style, geometry_for(config_.spm_bytes)),
      pm_calc_(config_.memory_style, geometry_for(config_.pm_bytes)),
      core_model_(energy::arm9_class_core_40nm()),
      codec_model_(codec_model_for(config_.scheme)),
      secded_overhead_(shared_secded_overhead()),
      bch_overhead_(shared_bch_overhead()),
      bus_(0) {
  NTC_REQUIRE(config_.imem_bytes % 4 == 0 && config_.spm_bytes % 4 == 0);
  NTC_REQUIRE(config_.vdd.value > 0.0 && config_.clock.value > 0.0);
  build_memories();
}

void Platform::build_memories() {
  const bool secded_memories = config_.scheme == mitigation::SchemeKind::Secded;
  const bool ocean = config_.scheme == mitigation::SchemeKind::Ocean;

  const std::shared_ptr<const ecc::BlockCode>& secded = shared_secded_code();
  const std::shared_ptr<const ecc::BlockCode>& bch = shared_bch_code();

  // IM: SECDED under both ECC and OCEAN (fetches must at least detect).
  imem_ = make_memory("imem", config_.imem_bytes,
                      (secded_memories || ocean) ? 39 : 32,
                      (secded_memories || ocean) ? secded : nullptr,
                      array_stream(config_.seed, ArrayKind::Imem));
  // SPM: SECDED under ECC and OCEAN — Figure 6 keeps the ECC module in
  // the OCEAN configuration; OCEAN adds rollback for what SECDED can
  // only *detect*, which is how it tolerates the deeper supply.
  spm_ = make_memory("spm", config_.spm_bytes,
                     (secded_memories || ocean) ? 39 : 32,
                     (secded_memories || ocean) ? secded : nullptr,
                     array_stream(config_.seed, ArrayKind::Spm));
  pm_.reset();
  if (ocean) {
    pm_ = make_memory("pm", config_.pm_bytes,
                      static_cast<std::uint32_t>(bch->code_bits()), bch,
                      array_stream(config_.seed, ArrayKind::Pm));
  }

  bus_ = Bus(0);
  bus_.map("imem", PlatformMap::kImemBase, imem_.get());
  bus_.map("spm", PlatformMap::kSpmBase, spm_.get());
  if (pm_) bus_.map("pm", PlatformMap::kPmBase, pm_.get());
  // The core references bus_ (the member object, stable across the
  // assignment above), so it survives rebuilds; it only needs creating
  // once.
  if (!cpu_) cpu_ = std::make_unique<Cpu>(bus_);
  cpu_->reset(PlatformMap::kImemBase * 4);
}

void Platform::reset(std::uint64_t seed, Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  config_.seed = seed;
  config_.vdd = vdd;
  // The streams build_memories hands make_memory, so a reset platform
  // draws exactly what a fresh Platform(config) would.
  imem_->array().reset(vdd, array_stream(seed, ArrayKind::Imem));
  imem_->reset_stats();
  spm_->array().reset(vdd, array_stream(seed, ArrayKind::Spm));
  spm_->reset_stats();
  if (pm_) {
    pm_->array().reset(vdd, array_stream(seed, ArrayKind::Pm));
    pm_->reset_stats();
  }
  bus_.reset_stats();
  extra_cycles_ = 0;
  extra_fetches_ = 0;
  cpu_->reset(PlatformMap::kImemBase * 4);
}

void Platform::reset(std::uint64_t seed, Volt vdd,
                     mitigation::SchemeKind scheme) {
  if (scheme == config_.scheme) {
    reset(seed, vdd);
    return;
  }
  config_.scheme = scheme;
  config_.seed = seed;
  config_.vdd = vdd;
  scheme_ = scheme_for(scheme);
  codec_model_ = codec_model_for(scheme);
  extra_cycles_ = 0;
  extra_fetches_ = 0;
  build_memories();
}

std::unique_ptr<EccMemory> Platform::make_memory(
    const std::string& name, std::uint32_t bytes, std::uint32_t stored_bits,
    std::shared_ptr<const ecc::BlockCode> code, Rng stream) {
  energy::MemoryCalculator calc(config_.memory_style, geometry_for(bytes));
  auto array = std::make_unique<SramModule>(
      name, bytes / 4, stored_bits, calc.access_model(), calc.retention_model(),
      config_.vdd, stream, config_.inject_faults, config_.tables);
  return std::make_unique<EccMemory>(std::move(array), std::move(code));
}

void Platform::load_program(const std::vector<std::uint32_t>& words) {
  NTC_REQUIRE(words.size() <= imem_->word_count());
  // Programming happens at safe voltage: suspend fault injection by
  // writing through a temporarily raised rail.
  const Volt run_vdd = config_.vdd;
  imem_->array().set_vdd(Volt{1.1});
  for (std::uint32_t i = 0; i < words.size(); ++i) imem_->write_word(i, words[i]);
  imem_->array().set_vdd(run_vdd);
  imem_->array().reset_stats();
  imem_->reset_stats();
  cpu_->reset(PlatformMap::kImemBase * 4);
}

void Platform::add_compute_cycles(std::uint64_t cycles, double fetches_per_cycle) {
  NTC_REQUIRE(fetches_per_cycle >= 0.0);
  extra_cycles_ += cycles;
  extra_fetches_ +=
      static_cast<std::uint64_t>(fetches_per_cycle * static_cast<double>(cycles));
}

std::uint64_t Platform::total_cycles() const {
  return cpu_->stats().cycles + extra_cycles_;
}

Second Platform::elapsed() const {
  return Second{static_cast<double>(total_cycles()) / config_.clock.value};
}

void Platform::set_vdd(Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  config_.vdd = vdd;
  imem_->array().set_vdd(vdd);
  spm_->array().set_vdd(vdd);
  if (pm_) pm_->array().set_vdd(vdd);
}

PlatformEnergyReport Platform::energy_report() const {
  const Second t = elapsed();
  NTC_REQUIRE_MSG(t.value > 0.0, "no activity to report");
  const Volt v = config_.vdd;
  const Celsius temp = config_.temperature;

  PlatformEnergyReport report;

  // --- Core: dynamic per cycle + leakage.
  const std::uint64_t cycles = total_cycles();
  const Joule core_dyn =
      core_model_.dynamic_energy_per_cycle(v) * static_cast<double>(cycles);
  report.core = core_dyn / t + core_model_.leakage(v, temp);

  // --- Memories: per-access dynamic (scaled by stored word width) plus
  // leakage.  Fetch counts for execution-driven workloads are charged
  // via extra_fetches_.
  auto memory_power = [&](const EccMemory& mem,
                          const energy::MemoryCalculator& calc,
                          std::uint64_t extra_reads) {
    const energy::MemoryFigures fig = calc.at(v, temp);
    const auto& st = mem.array().stats();
    const double width_factor =
        static_cast<double>(mem.array().stored_bits()) / 32.0;
    const Joule dyn =
        fig.read_energy * (static_cast<double>(st.reads + extra_reads) * width_factor) +
        fig.write_energy * (static_cast<double>(st.writes) * width_factor);
    return dyn / t + fig.leakage;
  };
  report.imem = memory_power(*imem_, imem_calc_, extra_fetches_);
  report.spm = memory_power(*spm_, spm_calc_, 0);
  if (pm_) report.pm = memory_power(*pm_, pm_calc_, 0);

  // --- Codec hardware: per protected access plus its leakage.
  Joule codec_dyn{0.0};
  auto charge_codec = [&](const EccMemory& mem, const ecc::CodecOverhead& oh,
                          std::uint64_t extra_reads) {
    if (!mem.code()) return;
    const auto& st = mem.array().stats();
    codec_dyn += oh.decode_energy(v) * static_cast<double>(st.reads + extra_reads);
    codec_dyn += oh.encode_energy(v) * static_cast<double>(st.writes);
  };
  charge_codec(*imem_, secded_overhead_, extra_fetches_);
  charge_codec(*spm_, secded_overhead_, 0);
  if (pm_) charge_codec(*pm_, bch_overhead_, 0);
  Watt codec_leak{0.0};
  if (config_.scheme != mitigation::SchemeKind::NoMitigation)
    codec_leak = codec_model_.leakage(v, temp);
  report.codec = codec_dyn / t + codec_leak;

  return report;
}

}  // namespace ntc::sim
