#include "core/ntc_memory.hpp"

#include "common/assert.hpp"
#include "ecc/bch.hpp"
#include "ecc/hamming.hpp"

namespace ntc::core {

namespace {

std::shared_ptr<const ecc::BlockCode> code_for(mitigation::SchemeKind kind) {
  switch (kind) {
    case mitigation::SchemeKind::NoMitigation:
      return nullptr;
    case mitigation::SchemeKind::Secded:
      return std::make_shared<ecc::HammingSecded>(32);
    case mitigation::SchemeKind::Ocean:
    case mitigation::SchemeKind::Custom:
      return std::make_shared<ecc::BchCode>(ecc::ocean_buffer_code());
  }
  return nullptr;
}

mitigation::MitigationScheme scheme_for(mitigation::SchemeKind kind) {
  switch (kind) {
    case mitigation::SchemeKind::Secded:
      return mitigation::secded_scheme();
    case mitigation::SchemeKind::Ocean:
    case mitigation::SchemeKind::Custom:
      return mitigation::ocean_scheme();
    case mitigation::SchemeKind::NoMitigation:
      break;
  }
  return mitigation::no_mitigation();
}

}  // namespace

NtcMemory::NtcMemory(NtcMemoryConfig config)
    : config_(config),
      scheme_(scheme_for(config.scheme)),
      calculator_(config.style, energy::MemoryGeometry{config.bytes / 4, 32}) {
  NTC_REQUIRE(config.bytes >= 4 && config.bytes % 4 == 0);
  std::shared_ptr<const ecc::BlockCode> code = code_for(config_.scheme);
  const std::uint32_t stored =
      code ? static_cast<std::uint32_t>(code->code_bits()) : 32u;
  auto array = std::make_unique<sim::SramModule>(
      "ntcmem", config_.bytes / 4, stored, calculator_.access_model(),
      calculator_.retention_model(), config_.vdd, Rng(config_.seed),
      config_.inject_faults);
  inner_ = std::make_unique<sim::EccMemory>(std::move(array), std::move(code));
}

std::uint32_t NtcMemory::word_count() const { return inner_->word_count(); }

sim::AccessStatus NtcMemory::read_word(std::uint32_t word_index,
                                       std::uint32_t& data) {
  maybe_scrub();
  return inner_->read_word(word_index, data);
}

sim::AccessStatus NtcMemory::write_word(std::uint32_t word_index,
                                        std::uint32_t data) {
  maybe_scrub();
  return inner_->write_word(word_index, data);
}

sim::AccessStatus NtcMemory::read_burst(std::uint32_t word_index,
                                        std::span<std::uint32_t> data) {
  if (!sim::burst_native_enabled())
    return MemoryPort::read_burst(word_index, data);
  sim::AccessStatus status = sim::AccessStatus::Ok;
  const std::uint64_t interval = config_.scrub_interval_accesses;
  const std::uint32_t n = static_cast<std::uint32_t>(data.size());
  std::uint32_t off = 0;
  while (off < n) {
    // maybe_scrub() fires on the access that takes the counter to the
    // interval; `until` accesses from now.  When that lands inside the
    // burst, run the scrub-free prefix, scrub, then the trigger word
    // (which, as per the per-word path, leaves the counter at zero).
    const std::uint64_t until = interval - accesses_since_scrub_;
    if (interval != 0 && until <= n - off) {
      const std::uint32_t plain = static_cast<std::uint32_t>(until - 1);
      if (plain != 0)
        status = sim::worse_status(
            status, inner_->read_burst(word_index + off,
                                       data.subspan(off, plain)));
      accesses_since_scrub_ = 0;
      inner_->scrub();
      ++scrubs_;
      status = sim::worse_status(
          status, inner_->read_burst(word_index + off + plain,
                                     data.subspan(off + plain, 1)));
      off += plain + 1;
    } else {
      const std::uint32_t m = n - off;
      status = sim::worse_status(
          status, inner_->read_burst(word_index + off, data.subspan(off, m)));
      accesses_since_scrub_ += m;
      off += m;
    }
  }
  return status;
}

sim::AccessStatus NtcMemory::write_burst(std::uint32_t word_index,
                                         std::span<const std::uint32_t> data) {
  if (!sim::burst_native_enabled())
    return MemoryPort::write_burst(word_index, data);
  sim::AccessStatus status = sim::AccessStatus::Ok;
  const std::uint64_t interval = config_.scrub_interval_accesses;
  const std::uint32_t n = static_cast<std::uint32_t>(data.size());
  std::uint32_t off = 0;
  while (off < n) {
    const std::uint64_t until = interval - accesses_since_scrub_;
    if (interval != 0 && until <= n - off) {
      const std::uint32_t plain = static_cast<std::uint32_t>(until - 1);
      if (plain != 0)
        status = sim::worse_status(
            status, inner_->write_burst(word_index + off,
                                        data.subspan(off, plain)));
      accesses_since_scrub_ = 0;
      inner_->scrub();
      ++scrubs_;
      status = sim::worse_status(
          status, inner_->write_burst(word_index + off + plain,
                                      data.subspan(off + plain, 1)));
      off += plain + 1;
    } else {
      const std::uint32_t m = n - off;
      status = sim::worse_status(
          status, inner_->write_burst(word_index + off, data.subspan(off, m)));
      accesses_since_scrub_ += m;
      off += m;
    }
  }
  return status;
}

void NtcMemory::maybe_scrub() {
  ++accesses_since_scrub_;
  if (config_.scrub_interval_accesses == 0) return;
  if (accesses_since_scrub_ >= config_.scrub_interval_accesses) {
    accesses_since_scrub_ = 0;
    inner_->scrub();
    ++scrubs_;
  }
}

std::uint64_t NtcMemory::scrub() {
  ++scrubs_;
  accesses_since_scrub_ = 0;
  return inner_->scrub();
}

void NtcMemory::set_vdd(Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  config_.vdd = vdd;
  inner_->array().set_vdd(vdd);
}

energy::MemoryFigures NtcMemory::figures() const {
  return calculator_.at(config_.vdd);
}

}  // namespace ntc::core
