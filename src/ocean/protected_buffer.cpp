#include "ocean/protected_buffer.hpp"

#include <vector>

#include "common/assert.hpp"
#include "ecc/crc.hpp"

namespace ntc::ocean {

ProtectedBuffer::ProtectedBuffer(sim::EccMemory& pm) : pm_(pm) {
  NTC_REQUIRE_MSG(pm.code() != nullptr,
                  "the protected buffer requires a coded memory");
  NTC_REQUIRE_MSG(pm.word_count() >= 2, "PM too small for two slots");
}

ProtectedBuffer::SaveResult ProtectedBuffer::save_with_crc(
    sim::MemoryPort& spm, workloads::ChunkRef chunk) {
  NTC_REQUIRE_MSG(chunk.words <= slot_capacity_words(),
                  "chunk exceeds checkpoint slot capacity");
  const std::uint32_t base = slot_base(current_slot_ ^ 1u);  // idle slot
  SaveResult result;
  std::vector<std::uint32_t> buffer(chunk.words);
  spm.read_burst_counted(chunk.word_offset, buffer,
                         result.uncorrectable_words);
  pm_.write_burst(base, buffer);
  result.crc = ecc::Crc32::compute_words(buffer);
  return result;
}

RestoreResult ProtectedBuffer::restore(sim::MemoryPort& spm,
                                       workloads::ChunkRef chunk) {
  NTC_REQUIRE(chunk.words <= slot_capacity_words());
  const std::uint32_t base = slot_base(current_slot_);
  RestoreResult result;
  std::vector<std::uint32_t> buffer(chunk.words);
  pm_.read_burst_counted(base, buffer, result.uncorrectable_words);
  spm.write_burst(chunk.word_offset, buffer);
  result.words_restored = chunk.words;
  return result;
}

}  // namespace ntc::ocean
