#include "sim/disassembler.hpp"

#include <cstdio>

namespace ntc::sim {

namespace {

std::string reg(unsigned index) {
  std::string name = "x";
  name += std::to_string(index);
  return name;
}

std::int32_t sign_extend(std::uint32_t value, unsigned bits) {
  const std::uint32_t m = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ m) - m);
}

std::string word_literal(std::uint32_t instruction) {
  char buf[24];
  std::snprintf(buf, sizeof buf, ".word 0x%08X", instruction);
  return buf;
}

}  // namespace

std::string disassemble(std::uint32_t inst) {
  const unsigned opcode = inst & 0x7Fu;
  const unsigned rd = (inst >> 7) & 0x1Fu;
  const unsigned funct3 = (inst >> 12) & 0x7u;
  const unsigned rs1 = (inst >> 15) & 0x1Fu;
  const unsigned rs2 = (inst >> 20) & 0x1Fu;
  const unsigned funct7 = inst >> 25;
  const std::int32_t i_imm = sign_extend(inst >> 20, 12);

  switch (opcode) {
    case 0x37:
      return "lui " + reg(rd) + ", " + std::to_string(inst >> 12);
    case 0x17:
      return "auipc " + reg(rd) + ", " + std::to_string(inst >> 12);
    case 0x6F: {
      std::uint32_t imm = ((inst >> 31) << 20) | (((inst >> 12) & 0xFFu) << 12) |
                          (((inst >> 20) & 1u) << 11) |
                          (((inst >> 21) & 0x3FFu) << 1);
      return "jal " + reg(rd) + ", " + std::to_string(sign_extend(imm, 21));
    }
    case 0x67:
      if (funct3 != 0) return word_literal(inst);
      return "jalr " + reg(rd) + ", " + std::to_string(i_imm) + "(" + reg(rs1) + ")";
    case 0x63: {
      static const char* names[] = {"beq", "bne", nullptr, nullptr,
                                    "blt", "bge", "bltu", "bgeu"};
      if (!names[funct3]) return word_literal(inst);
      std::uint32_t imm = ((inst >> 31) << 12) | (((inst >> 7) & 1u) << 11) |
                          (((inst >> 25) & 0x3Fu) << 5) |
                          (((inst >> 8) & 0xFu) << 1);
      return std::string(names[funct3]) + " " + reg(rs1) + ", " + reg(rs2) +
             ", " + std::to_string(sign_extend(imm, 13));
    }
    case 0x03: {
      static const char* names[] = {"lb", "lh", "lw", nullptr,
                                    "lbu", "lhu", nullptr, nullptr};
      if (!names[funct3]) return word_literal(inst);
      return std::string(names[funct3]) + " " + reg(rd) + ", " +
             std::to_string(i_imm) + "(" + reg(rs1) + ")";
    }
    case 0x23: {
      static const char* names[] = {"sb", "sh", "sw"};
      if (funct3 > 2) return word_literal(inst);
      const std::int32_t imm =
          sign_extend(((inst >> 25) << 5) | ((inst >> 7) & 0x1Fu), 12);
      return std::string(names[funct3]) + " " + reg(rs2) + ", " +
             std::to_string(imm) + "(" + reg(rs1) + ")";
    }
    case 0x13: {
      switch (funct3) {
        case 0: return "addi " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 2: return "slti " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 3: return "sltiu " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 4: return "xori " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 6: return "ori " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 7: return "andi " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(i_imm);
        case 1:
          if (funct7 != 0) return word_literal(inst);
          return "slli " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(rs2);
        case 5:
          if (funct7 == 0)
            return "srli " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(rs2);
          if (funct7 == 0x20)
            return "srai " + reg(rd) + ", " + reg(rs1) + ", " + std::to_string(rs2);
          return word_literal(inst);
      }
      return word_literal(inst);
    }
    case 0x33: {
      if (funct7 == 0x01) {
        if (funct3 == 0)
          return "mul " + reg(rd) + ", " + reg(rs1) + ", " + reg(rs2);
        return word_literal(inst);
      }
      if (funct7 != 0 && funct7 != 0x20) return word_literal(inst);
      static const char* base[] = {"add", "sll", "slt", "sltu",
                                   "xor", "srl", "or", "and"};
      std::string name = base[funct3];
      if (funct7 == 0x20) {
        if (funct3 == 0)
          name = "sub";
        else if (funct3 == 5)
          name = "sra";
        else
          return word_literal(inst);
      }
      return name + " " + reg(rd) + ", " + reg(rs1) + ", " + reg(rs2);
    }
    case 0x73:
      if (inst == 0x73) return "ecall";
      return word_literal(inst);
    default:
      return word_literal(inst);
  }
}

bool is_decodable(std::uint32_t instruction) {
  return disassemble(instruction).rfind(".word", 0) != 0;
}

std::vector<std::string> disassemble_program(
    const std::vector<std::uint32_t>& words, std::uint32_t base_address) {
  std::vector<std::string> out;
  out.reserve(words.size());
  char prefix[32];
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::snprintf(prefix, sizeof prefix, "%08x:  ",
                  base_address + static_cast<std::uint32_t>(4 * i));
    out.push_back(prefix + disassemble(words[i]));
  }
  return out;
}

}  // namespace ntc::sim
