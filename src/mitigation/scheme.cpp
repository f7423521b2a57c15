#include "mitigation/scheme.hpp"

#include <ostream>

#include "common/assert.hpp"

namespace ntc::mitigation {

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::NoMitigation: return "none";
    case SchemeKind::Secded: return "secded";
    case SchemeKind::Ocean: return "ocean";
    case SchemeKind::Custom: return "custom";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, SchemeKind kind) {
  return os << to_string(kind);
}

MitigationScheme no_mitigation() {
  MitigationScheme s;
  s.kind = SchemeKind::NoMitigation;
  s.name = "No mitigation";
  s.data_bits = 32;
  s.stored_bits = 32;
  s.failure_threshold = 1;
  return s;
}

MitigationScheme secded_scheme() {
  MitigationScheme s;
  s.kind = SchemeKind::Secded;
  s.name = "ECC (SECDED 39,32)";
  s.data_bits = 32;
  s.stored_bits = 39;
  s.failure_threshold = 3;  // triple-bit error defeats SECDED
  return s;
}

MitigationScheme ocean_scheme() {
  MitigationScheme s;
  s.kind = SchemeKind::Ocean;
  s.name = "OCEAN";
  s.data_bits = 32;
  s.stored_bits = 39;       // FIT evaluated on the protected word span
  s.failure_threshold = 5;  // quintuple-bit error defeats OCEAN
  return s;
}

MitigationScheme scheme_from_code(const ecc::BlockCode& code, std::string name) {
  NTC_REQUIRE(code.data_bits() <= 64);
  MitigationScheme s;
  s.kind = SchemeKind::Custom;
  s.name = name.empty() ? code.name() : std::move(name);
  s.data_bits = static_cast<std::uint32_t>(code.data_bits());
  s.stored_bits = static_cast<std::uint32_t>(code.code_bits());
  s.failure_threshold =
      static_cast<std::uint32_t>(code.correct_capability()) + 1;
  return s;
}

}  // namespace ntc::mitigation
