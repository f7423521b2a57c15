// Memory implementation styles and geometry (paper Table 1).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace ntc::energy {

/// The four implementation styles the paper compares, scaled to a
/// 1k x 32b instance in Table 1.
enum class MemoryStyle {
  CommercialMacro40,  ///< COTS 6T SRAM compiler macro, 40 nm
  CustomSram40,       ///< custom 6T design with charge pump [12], 40 nm
  CellBased65,        ///< dual-Vt standard-cell memory [13], 65 nm
  CellBasedImec40,    ///< imec AOI-cell-based array (the paper's design)
};

inline std::string to_string(MemoryStyle s) {
  switch (s) {
    case MemoryStyle::CommercialMacro40: return "COTS 40nm";
    case MemoryStyle::CustomSram40: return "Custom SRAM [12] 40nm";
    case MemoryStyle::CellBased65: return "Cell-based [13] 65nm";
    case MemoryStyle::CellBasedImec40: return "Cell-based imec 40nm";
  }
  return "?";
}

inline std::ostream& operator<<(std::ostream& os, MemoryStyle s) {
  return os << to_string(s);
}

struct MemoryGeometry {
  std::uint64_t words = 1024;
  std::uint32_t bits_per_word = 32;

  std::uint64_t total_bits() const { return words * bits_per_word; }
  std::uint64_t total_bytes() const { return total_bits() / 8; }
};

/// The Table 1 reference instance: 1k x 32b = 32 kb.
inline MemoryGeometry reference_1k_x_32() { return MemoryGeometry{1024, 32}; }

}  // namespace ntc::energy
