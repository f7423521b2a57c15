#include "sim/ecc_memory.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::sim {

std::uint64_t pack_codeword(const ecc::Bits& code, std::size_t bits) {
  NTC_REQUIRE(bits >= 1 && bits <= 64);
  return code.extract(0, bits);
}

ecc::Bits unpack_codeword(std::uint64_t raw, std::size_t bits) {
  NTC_REQUIRE(bits >= 1 && bits <= 64);
  ecc::Bits out;
  out.set_word(0, raw & (~std::uint64_t{0} >> (64 - bits)));
  return out;
}

EccMemory::EccMemory(std::unique_ptr<SramModule> array,
                     std::shared_ptr<const ecc::BlockCode> code)
    : array_(std::move(array)), code_(std::move(code)) {
  NTC_REQUIRE(array_ != nullptr);
  if (code_) {
    NTC_REQUIRE(code_->data_bits() == 32);
    NTC_REQUIRE_MSG(array_->stored_bits() == code_->code_bits(),
                    "array word width must match the codeword width");
  } else {
    NTC_REQUIRE(array_->stored_bits() == 32);
  }
}

AccessStatus EccMemory::read_word(std::uint32_t word_index, std::uint32_t& data) {
  const std::uint64_t raw = array_->read_raw(word_index);
  if (!code_) {
    data = static_cast<std::uint32_t>(raw);
    if (trace_sink_) trace_sink_->on_access(false, word_index, &data, 1);
    return AccessStatus::Ok;
  }
  const ecc::DecodeResult result =
      code_->decode(unpack_codeword(raw, code_->code_bits()));
  data = static_cast<std::uint32_t>(result.data);
  if (trace_sink_) trace_sink_->on_access(false, word_index, &data, 1);
  switch (result.status) {
    case ecc::DecodeStatus::Ok:
      return AccessStatus::Ok;
    case ecc::DecodeStatus::Corrected:
      ++stats_.corrected_words;
      stats_.corrected_bits += static_cast<std::uint64_t>(result.corrected_bits);
      NTC_TELEM_COUNT("ntc_ecc_corrected_words_total", 1);
      return AccessStatus::CorrectedError;
    case ecc::DecodeStatus::DetectedUncorrectable:
      ++stats_.uncorrectable_words;
      NTC_TELEM_COUNT("ntc_ecc_uncorrectable_words_total", 1);
      return AccessStatus::DetectedUncorrectable;
  }
  return AccessStatus::Ok;
}

namespace {
/// Stack-buffer chunk size for the burst codec scratch (256 words keeps
/// the raw + decode-result buffers ~8 KiB, comfortably in L1).
constexpr std::uint32_t kCodecChunk = 256;
}  // namespace

AccessStatus EccMemory::read_burst(std::uint32_t word_index,
                                   std::span<std::uint32_t> data) {
  if (!burst_native_enabled()) return MemoryPort::read_burst(word_index, data);
  NTC_REQUIRE(static_cast<std::uint64_t>(word_index) + data.size() <=
              array_->words());
  // One event per burst; the word count rides in a1 rather than a
  // histogram observe so the benched hot path pays a single record().
  NTC_TELEM_EVENT(telemetry::EventKind::MemoryBurst, "ecc_read_burst",
                  word_index, data.size());
  AccessStatus status = AccessStatus::Ok;
  std::uint64_t raws[kCodecChunk];
  if (!code_) {
    for (std::size_t off = 0; off < data.size(); off += kCodecChunk) {
      const std::uint32_t m = static_cast<std::uint32_t>(
          std::min<std::size_t>(data.size() - off, kCodecChunk));
      array_->read_raw_burst(word_index + static_cast<std::uint32_t>(off), raws,
                             m);
      for (std::uint32_t i = 0; i < m; ++i)
        data[off + i] = static_cast<std::uint32_t>(raws[i]);
    }
    if (trace_sink_)
      trace_sink_->on_access(false, word_index, data.data(),
                             static_cast<std::uint32_t>(data.size()));
    return status;
  }
  ecc::BatchDecodeSummary summary;
  for (std::size_t off = 0; off < data.size(); off += kCodecChunk) {
    const std::uint32_t m = static_cast<std::uint32_t>(
        std::min<std::size_t>(data.size() - off, kCodecChunk));
    array_->read_raw_burst(word_index + static_cast<std::uint32_t>(off), raws,
                           m);
    code_->decode_words(raws, m, data.data() + off, summary);
    status = worse_status(status, note_summary(summary));
  }
  if (trace_sink_)
    trace_sink_->on_access(false, word_index, data.data(),
                           static_cast<std::uint32_t>(data.size()));
  return status;
}

AccessStatus EccMemory::note_summary(const ecc::BatchDecodeSummary& summary) {
  stats_.corrected_words += summary.corrected_words;
  stats_.corrected_bits += summary.corrected_bits;
  stats_.uncorrectable_words += summary.uncorrectable_words;
  if (summary.corrected_words > 0 || summary.uncorrectable_words > 0) {
    NTC_TELEM_EVENT(telemetry::EventKind::EccDecode, "ecc_batch_decode",
                    summary.corrected_words, summary.uncorrectable_words);
    NTC_TELEM_COUNT("ntc_ecc_corrected_words_total", summary.corrected_words);
    NTC_TELEM_COUNT("ntc_ecc_uncorrectable_words_total",
                    summary.uncorrectable_words);
  }
  if (summary.uncorrectable_words > 0) return AccessStatus::DetectedUncorrectable;
  if (summary.corrected_words > 0) return AccessStatus::CorrectedError;
  return AccessStatus::Ok;
}

AccessStatus EccMemory::write_burst(std::uint32_t word_index,
                                    std::span<const std::uint32_t> data) {
  if (!burst_native_enabled()) return MemoryPort::write_burst(word_index, data);
  NTC_REQUIRE(static_cast<std::uint64_t>(word_index) + data.size() <=
              array_->words());
  NTC_TELEM_EVENT(telemetry::EventKind::MemoryBurst, "ecc_write_burst",
                  word_index, data.size());
  std::uint64_t raws[kCodecChunk];
  if (!code_) {
    for (std::size_t off = 0; off < data.size(); off += kCodecChunk) {
      const std::uint32_t m = static_cast<std::uint32_t>(
          std::min<std::size_t>(data.size() - off, kCodecChunk));
      for (std::uint32_t i = 0; i < m; ++i) raws[i] = data[off + i];
      array_->write_raw_burst(word_index + static_cast<std::uint32_t>(off),
                              raws, m);
    }
    if (trace_sink_)
      trace_sink_->on_access(true, word_index, data.data(),
                             static_cast<std::uint32_t>(data.size()));
    return AccessStatus::Ok;
  }
  for (std::size_t off = 0; off < data.size(); off += kCodecChunk) {
    const std::uint32_t m = static_cast<std::uint32_t>(
        std::min<std::size_t>(data.size() - off, kCodecChunk));
    code_->encode_words(data.data() + off, m, raws);
    array_->write_raw_burst(word_index + static_cast<std::uint32_t>(off), raws,
                            m);
  }
  if (trace_sink_)
    trace_sink_->on_access(true, word_index, data.data(),
                           static_cast<std::uint32_t>(data.size()));
  return AccessStatus::Ok;
}

AccessStatus EccMemory::read_burst_counted(std::uint32_t word_index,
                                           std::span<std::uint32_t> data,
                                           std::uint64_t& uncorrectable) {
  const std::uint64_t before = stats_.uncorrectable_words;
  const AccessStatus status = read_burst(word_index, data);
  uncorrectable = stats_.uncorrectable_words - before;
  return status;
}

AccessStatus EccMemory::write_word(std::uint32_t word_index, std::uint32_t data) {
  if (!code_) {
    array_->write_raw(word_index, data);
    if (trace_sink_) trace_sink_->on_access(true, word_index, &data, 1);
    return AccessStatus::Ok;
  }
  array_->write_raw(word_index, pack_codeword(code_->encode(data), code_->code_bits()));
  if (trace_sink_) trace_sink_->on_access(true, word_index, &data, 1);
  return AccessStatus::Ok;
}

std::uint64_t EccMemory::scrub() {
  NTC_TELEM_SPAN(span, telemetry::EventKind::Scrub, "ecc_scrub");
  ++stats_.scrub_passes;
  std::uint64_t uncorrectable = 0;
  for (std::uint32_t w = 0; w < array_->words(); ++w) {
    std::uint32_t data = 0;
    const AccessStatus status = read_word(w, data);
    if (status == AccessStatus::DetectedUncorrectable) {
      // Do NOT write back: re-encoding a best-effort decode would turn a
      // detected error into a valid codeword of wrong data (silent
      // corruption), and discard raw bits a later retry at a healthier
      // operating point could still recover.
      ++uncorrectable;
      continue;
    }
    write_word(w, data);
  }
  span.set_args(array_->words(), uncorrectable);
  NTC_TELEM_COUNT("ntc_ecc_scrub_passes_total", 1);
  return uncorrectable;
}

}  // namespace ntc::sim
