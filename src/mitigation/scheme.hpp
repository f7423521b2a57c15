// Error-mitigation scheme descriptors (paper Section V).
//
// A scheme is characterised by how many simultaneous bit errors in one
// memory word defeat it (the failure threshold), how many bits it
// actually stores per 32-bit data word, and its codec overheads:
//   * no mitigation — any single bit error is a failure (threshold 1);
//   * SECDED (39,32) — corrects 1, detects 2, a triple-bit error causes
//     system failure (threshold 3);
//   * OCEAN — demand-driven checkpoint/rollback with a quadruple-error-
//     correcting protected buffer; a quintuple error causes system
//     failure (threshold 5).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ecc/code.hpp"

namespace ntc::mitigation {

enum class SchemeKind { NoMitigation, Secded, Ocean, Custom };

/// Short label: "none", "secded", "ocean" or "custom".
const char* to_string(SchemeKind kind);
std::ostream& operator<<(std::ostream& os, SchemeKind kind);

struct MitigationScheme {
  SchemeKind kind = SchemeKind::NoMitigation;
  std::string name = "No mitigation";
  std::uint32_t data_bits = 32;
  std::uint32_t stored_bits = 32;     ///< bits physically read/written per word
  std::uint32_t failure_threshold = 1; ///< simultaneous bit errors -> failure
  /// Dynamic memory-energy multiplier (stored_bits / data_bits).
  double memory_energy_factor() const {
    return static_cast<double>(stored_bits) / static_cast<double>(data_bits);
  }
};

/// Running the memory bare: FIT requires error-free operation.
MitigationScheme no_mitigation();

/// The (39,32) SECDED reference scheme.
MitigationScheme secded_scheme();

/// OCEAN: scratchpad stays 32-bit (detection via software CRC +
/// rollback); failure needs 5 simultaneous errors (protected-buffer BCH
/// t=4 exhausted).  Stored bits stay at 32 on the main scratchpad; the
/// checkpoint traffic overhead is charged separately by the platform
/// model.
MitigationScheme ocean_scheme();

/// Derive a scheme from an arbitrary block code: failure at t+1 errors
/// beyond guaranteed correction (conservative: detection-only margin is
/// not counted as survival).
MitigationScheme scheme_from_code(const ecc::BlockCode& code,
                                  std::string name = {});

}  // namespace ntc::mitigation
