#include "sim/memory_port.hpp"

#include <atomic>

#include "common/assert.hpp"

namespace ntc::sim {

namespace {

// Relaxed is enough: the flag is a test harness switch, flipped only
// between runs, never racing an access in a correctness-relevant way.
std::atomic<bool> g_burst_native{true};
std::atomic<bool> g_batch_enabled{true};

void require_no_wrap(std::uint32_t word_index, std::size_t words) {
  NTC_REQUIRE_MSG(static_cast<std::uint64_t>(word_index) + words <=
                      (std::uint64_t{1} << 32),
                  "burst would wrap the 32-bit word-index space");
}

}  // namespace

void set_burst_native_enabled(bool enabled) {
  g_burst_native.store(enabled, std::memory_order_relaxed);
}

bool burst_native_enabled() {
  return g_burst_native.load(std::memory_order_relaxed);
}

void set_batch_enabled(bool enabled) {
  g_batch_enabled.store(enabled, std::memory_order_relaxed);
}

bool batch_enabled() {
  return g_batch_enabled.load(std::memory_order_relaxed);
}

AccessStatus MemoryPort::read_burst(std::uint32_t word_index,
                                    std::span<std::uint32_t> data) {
  require_no_wrap(word_index, data.size());
  AccessStatus status = AccessStatus::Ok;
  for (std::size_t i = 0; i < data.size(); ++i)
    status = worse_status(
        status, read_word(word_index + static_cast<std::uint32_t>(i), data[i]));
  return status;
}

AccessStatus MemoryPort::write_burst(std::uint32_t word_index,
                                     std::span<const std::uint32_t> data) {
  require_no_wrap(word_index, data.size());
  AccessStatus status = AccessStatus::Ok;
  for (std::size_t i = 0; i < data.size(); ++i)
    status = worse_status(
        status,
        write_word(word_index + static_cast<std::uint32_t>(i), data[i]));
  return status;
}

AccessStatus MemoryPort::read_burst_counted(std::uint32_t word_index,
                                            std::span<std::uint32_t> data,
                                            std::uint64_t& uncorrectable) {
  require_no_wrap(word_index, data.size());
  AccessStatus status = AccessStatus::Ok;
  uncorrectable = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const AccessStatus word_status =
        read_word(word_index + static_cast<std::uint32_t>(i), data[i]);
    if (word_status == AccessStatus::DetectedUncorrectable) ++uncorrectable;
    status = worse_status(status, word_status);
  }
  return status;
}

}  // namespace ntc::sim
