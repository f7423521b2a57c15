#include "multitile/shared_memory.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "ecc/hamming.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::multitile {

namespace {

/// Process-wide immutable SECDED code shared by every region (same
/// sharing rationale as sim::Platform's singleton: const decode paths,
/// one codec synthesis per process).
const std::shared_ptr<const ecc::BlockCode>& shared_secded_code() {
  static const std::shared_ptr<const ecc::BlockCode> code =
      std::make_shared<ecc::HammingSecded>(32);
  return code;
}

/// Stack-buffer chunk size for the burst codec scratch (matches
/// sim::EccMemory's kCodecChunk: raw + decode buffers stay ~8 KiB).
constexpr std::uint32_t kCodecChunk = 256;

}  // namespace

std::uint32_t SharedMemory::required_stored_bits(
    const std::vector<mitigation::SchemeKind>& schemes) {
  for (const mitigation::SchemeKind kind : schemes)
    if (kind != mitigation::SchemeKind::NoMitigation)
      return static_cast<std::uint32_t>(shared_secded_code()->code_bits());
  return 32;
}

SharedMemory::SharedMemory(BankedMemoryConfig bank_config,
                           std::vector<mitigation::SchemeKind> region_schemes)
    : banked_(std::move(bank_config)) {
  NTC_REQUIRE(!region_schemes.empty());
  NTC_REQUIRE(banked_.words() % region_schemes.size() == 0);
  region_words_ =
      banked_.words() / static_cast<std::uint32_t>(region_schemes.size());
  regions_.reserve(region_schemes.size());
  for (std::size_t r = 0; r < region_schemes.size(); ++r) {
    SharedRegion region;
    region.base = static_cast<std::uint32_t>(r) * region_words_;
    region.words = region_words_;
    region.scheme = region_schemes[r];
    if (region.scheme != mitigation::SchemeKind::NoMitigation) {
      region.code = shared_secded_code();
      NTC_REQUIRE_MSG(banked_.bank(0).stored_bits() == region.code->code_bits(),
                      "bank word width must match the region codeword width");
    }
    regions_.push_back(std::move(region));
  }
}

sim::AccessStatus SharedMemory::read_word(std::uint32_t word_index,
                                          std::uint32_t& data) {
  SharedRegion& region = regions_[region_of(word_index)];
  const std::uint64_t raw = banked_.read_raw(word_index);
  if (!region.code) {
    data = static_cast<std::uint32_t>(raw);
    return sim::AccessStatus::Ok;
  }
  const ecc::DecodeResult result = region.code->decode(
      sim::unpack_codeword(raw, region.code->code_bits()));
  data = static_cast<std::uint32_t>(result.data);
  switch (result.status) {
    case ecc::DecodeStatus::Ok:
      return sim::AccessStatus::Ok;
    case ecc::DecodeStatus::Corrected:
      ++region.stats.corrected_words;
      region.stats.corrected_bits +=
          static_cast<std::uint64_t>(result.corrected_bits);
      NTC_TELEM_COUNT("ntc_ecc_corrected_words_total", 1);
      return sim::AccessStatus::CorrectedError;
    case ecc::DecodeStatus::DetectedUncorrectable:
      ++region.stats.uncorrectable_words;
      NTC_TELEM_COUNT("ntc_ecc_uncorrectable_words_total", 1);
      return sim::AccessStatus::DetectedUncorrectable;
  }
  return sim::AccessStatus::Ok;
}

sim::AccessStatus SharedMemory::write_word(std::uint32_t word_index,
                                           std::uint32_t data) {
  SharedRegion& region = regions_[region_of(word_index)];
  if (!region.code) {
    banked_.write_raw(word_index, data);
    return sim::AccessStatus::Ok;
  }
  banked_.write_raw(word_index,
                    sim::pack_codeword(region.code->encode(data),
                                       region.code->code_bits()));
  return sim::AccessStatus::Ok;
}

sim::AccessStatus SharedMemory::note_summary(
    SharedRegion& region, const ecc::BatchDecodeSummary& summary) {
  region.stats.corrected_words += summary.corrected_words;
  region.stats.corrected_bits += summary.corrected_bits;
  region.stats.uncorrectable_words += summary.uncorrectable_words;
  if (summary.corrected_words > 0 || summary.uncorrectable_words > 0) {
    NTC_TELEM_EVENT(telemetry::EventKind::EccDecode, "shared_batch_decode",
                    summary.corrected_words, summary.uncorrectable_words);
    NTC_TELEM_COUNT("ntc_ecc_corrected_words_total", summary.corrected_words);
    NTC_TELEM_COUNT("ntc_ecc_uncorrectable_words_total",
                    summary.uncorrectable_words);
  }
  if (summary.uncorrectable_words > 0)
    return sim::AccessStatus::DetectedUncorrectable;
  if (summary.corrected_words > 0) return sim::AccessStatus::CorrectedError;
  return sim::AccessStatus::Ok;
}

sim::AccessStatus SharedMemory::burst_read_region(
    SharedRegion& region, std::uint32_t word, std::uint32_t count,
    std::uint32_t* out, std::vector<std::uint32_t>* uncorrectable_at,
    std::uint32_t at_base) {
  sim::AccessStatus status = sim::AccessStatus::Ok;
  std::uint64_t raws[kCodecChunk];
  std::uint32_t bad[kCodecChunk];
  ecc::BatchDecodeSummary summary;
  for (std::uint32_t off = 0; off < count; off += kCodecChunk) {
    const std::uint32_t m = std::min(count - off, kCodecChunk);
    banked_.read_raw_burst(word + off, raws, m);
    if (!region.code) {
      for (std::uint32_t i = 0; i < m; ++i)
        out[off + i] = static_cast<std::uint32_t>(raws[i]);
      continue;
    }
    region.code->decode_words(raws, m, out + off, summary,
                              uncorrectable_at != nullptr ? bad : nullptr);
    if (uncorrectable_at != nullptr) {
      for (std::uint64_t k = 0; k < summary.uncorrectable_words; ++k)
        uncorrectable_at->push_back(at_base + off + bad[k]);
    }
    status = worse_status(status, note_summary(region, summary));
  }
  return status;
}

void SharedMemory::burst_write_region(SharedRegion& region, std::uint32_t word,
                                      std::uint32_t count,
                                      const std::uint32_t* data) {
  std::uint64_t raws[kCodecChunk];
  for (std::uint32_t off = 0; off < count; off += kCodecChunk) {
    const std::uint32_t m = std::min(count - off, kCodecChunk);
    if (region.code) {
      region.code->encode_words(data + off, m, raws);
    } else {
      for (std::uint32_t i = 0; i < m; ++i) raws[i] = data[off + i];
    }
    banked_.write_raw_burst(word + off, raws, m);
  }
}

sim::AccessStatus SharedMemory::read_burst(std::uint32_t word_index,
                                           std::span<std::uint32_t> data) {
  if (!sim::burst_native_enabled())
    return MemoryPort::read_burst(word_index, data);
  return native_read_burst(word_index, data, nullptr);
}

sim::AccessStatus SharedMemory::read_burst_located(
    std::uint32_t word_index, std::span<std::uint32_t> data,
    std::vector<std::uint32_t>& uncorrectable_at) {
  uncorrectable_at.clear();
  if (sim::burst_native_enabled())
    return native_read_burst(word_index, data, &uncorrectable_at);
  NTC_REQUIRE(static_cast<std::uint64_t>(word_index) + data.size() <=
              banked_.words());
  sim::AccessStatus status = sim::AccessStatus::Ok;
  for (std::uint32_t i = 0; i < data.size(); ++i) {
    const sim::AccessStatus word_status = read_word(word_index + i, data[i]);
    if (word_status == sim::AccessStatus::DetectedUncorrectable)
      uncorrectable_at.push_back(i);
    status = worse_status(status, word_status);
  }
  return status;
}

sim::AccessStatus SharedMemory::native_read_burst(
    std::uint32_t word_index, std::span<std::uint32_t> data,
    std::vector<std::uint32_t>* uncorrectable_at) {
  NTC_REQUIRE(static_cast<std::uint64_t>(word_index) + data.size() <=
              banked_.words());
  NTC_TELEM_EVENT(telemetry::EventKind::MemoryBurst, "shared_read_burst",
                  word_index, data.size());
  sim::AccessStatus status = sim::AccessStatus::Ok;
  std::uint32_t word = word_index;
  std::uint32_t done = 0;
  while (done < data.size()) {
    SharedRegion& region = regions_[region_of(word)];
    const std::uint32_t in_region = std::min<std::uint32_t>(
        region.base + region.words - word,
        static_cast<std::uint32_t>(data.size() - done));
    status = worse_status(
        status, burst_read_region(region, word, in_region, data.data() + done,
                                  uncorrectable_at, done));
    word += in_region;
    done += in_region;
  }
  return status;
}

sim::AccessStatus SharedMemory::write_burst(
    std::uint32_t word_index, std::span<const std::uint32_t> data) {
  if (!sim::burst_native_enabled())
    return MemoryPort::write_burst(word_index, data);
  NTC_REQUIRE(static_cast<std::uint64_t>(word_index) + data.size() <=
              banked_.words());
  NTC_TELEM_EVENT(telemetry::EventKind::MemoryBurst, "shared_write_burst",
                  word_index, data.size());
  std::uint32_t word = word_index;
  std::size_t done = 0;
  while (done < data.size()) {
    SharedRegion& region = regions_[region_of(word)];
    const std::uint32_t in_region = std::min<std::uint32_t>(
        region.base + region.words - word,
        static_cast<std::uint32_t>(data.size() - done));
    burst_write_region(region, word, in_region, data.data() + done);
    word += in_region;
    done += in_region;
  }
  return sim::AccessStatus::Ok;
}

void SharedMemory::reset(std::uint64_t seed, Volt vdd) {
  banked_.reset(seed, vdd);
  for (SharedRegion& region : regions_) region.stats = sim::EccMemoryStats{};
}

void SharedMemory::reset_stats() {
  banked_.reset_stats();
  for (SharedRegion& region : regions_) region.stats = sim::EccMemoryStats{};
}

}  // namespace ntc::multitile
