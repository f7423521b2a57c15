#include "sim/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>

namespace ntc::sim {

namespace {

const std::map<std::string, int>& abi_names() {
  static const std::map<std::string, int> names = [] {
    std::map<std::string, int> m;
    const char* abi[] = {"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
                         "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
                         "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
                         "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
    for (int i = 0; i < 32; ++i) m[abi[i]] = i;
    m["fp"] = 8;
    return m;
  }();
  return names;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Instruction encoders (RISC-V base formats).
std::uint32_t enc_r(unsigned op, unsigned rd, unsigned f3, unsigned rs1,
                    unsigned rs2, unsigned f7) {
  return op | (rd << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) | (f7 << 25);
}
std::uint32_t enc_i(unsigned op, unsigned rd, unsigned f3, unsigned rs1,
                    std::int32_t imm) {
  return op | (rd << 7) | (f3 << 12) | (rs1 << 15) |
         (static_cast<std::uint32_t>(imm & 0xFFF) << 20);
}
std::uint32_t enc_s(unsigned op, unsigned f3, unsigned rs1, unsigned rs2,
                    std::int32_t imm) {
  const std::uint32_t u = static_cast<std::uint32_t>(imm) & 0xFFFu;
  return op | ((u & 0x1F) << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) |
         ((u >> 5) << 25);
}
std::uint32_t enc_b(unsigned op, unsigned f3, unsigned rs1, unsigned rs2,
                    std::int32_t imm) {
  const std::uint32_t u = static_cast<std::uint32_t>(imm);
  return op | (((u >> 11) & 1) << 7) | (((u >> 1) & 0xF) << 8) | (f3 << 12) |
         (rs1 << 15) | (rs2 << 20) | (((u >> 5) & 0x3F) << 25) |
         (((u >> 12) & 1) << 31);
}
std::uint32_t enc_u(unsigned op, unsigned rd, std::int64_t imm) {
  return op | (rd << 7) | (static_cast<std::uint32_t>(imm) & 0xFFFFF000u);
}
std::uint32_t enc_j(unsigned op, unsigned rd, std::int32_t imm) {
  const std::uint32_t u = static_cast<std::uint32_t>(imm);
  return op | (rd << 7) | (((u >> 12) & 0xFF) << 12) | (((u >> 11) & 1) << 20) |
         (((u >> 1) & 0x3FF) << 21) | (((u >> 20) & 1) << 31);
}

struct OpInfo {
  enum Kind { R, I, Load, Store, Branch, U, J, Jalr, Shift, System } kind;
  unsigned f3 = 0;
  unsigned f7 = 0;
};

const std::map<std::string, OpInfo>& opcodes() {
  static const std::map<std::string, OpInfo> table = {
      {"add", {OpInfo::R, 0, 0x00}},  {"sub", {OpInfo::R, 0, 0x20}},
      {"sll", {OpInfo::R, 1, 0x00}},  {"slt", {OpInfo::R, 2, 0x00}},
      {"sltu", {OpInfo::R, 3, 0x00}}, {"xor", {OpInfo::R, 4, 0x00}},
      {"srl", {OpInfo::R, 5, 0x00}},  {"sra", {OpInfo::R, 5, 0x20}},
      {"or", {OpInfo::R, 6, 0x00}},   {"and", {OpInfo::R, 7, 0x00}},
      {"mul", {OpInfo::R, 0, 0x01}},
      {"addi", {OpInfo::I, 0}},       {"slti", {OpInfo::I, 2}},
      {"sltiu", {OpInfo::I, 3}},      {"xori", {OpInfo::I, 4}},
      {"ori", {OpInfo::I, 6}},        {"andi", {OpInfo::I, 7}},
      {"slli", {OpInfo::Shift, 1, 0x00}},
      {"srli", {OpInfo::Shift, 5, 0x00}},
      {"srai", {OpInfo::Shift, 5, 0x20}},
      {"lb", {OpInfo::Load, 0}},      {"lh", {OpInfo::Load, 1}},
      {"lw", {OpInfo::Load, 2}},      {"lbu", {OpInfo::Load, 4}},
      {"lhu", {OpInfo::Load, 5}},
      {"sb", {OpInfo::Store, 0}},     {"sh", {OpInfo::Store, 1}},
      {"sw", {OpInfo::Store, 2}},
      {"beq", {OpInfo::Branch, 0}},   {"bne", {OpInfo::Branch, 1}},
      {"blt", {OpInfo::Branch, 4}},   {"bge", {OpInfo::Branch, 5}},
      {"bltu", {OpInfo::Branch, 6}},  {"bgeu", {OpInfo::Branch, 7}},
      {"lui", {OpInfo::U}},           {"auipc", {OpInfo::U}},
      {"jal", {OpInfo::J}},           {"jalr", {OpInfo::Jalr}},
      {"ecall", {OpInfo::System}},
  };
  return table;
}

class Assembler {
  struct Line {
    std::size_t number = 0;
    std::string mnemonic;
    std::vector<std::string> operands;
    std::vector<std::pair<std::size_t, std::string>> labels_before;
    std::uint32_t address = 0;
  };

 public:
  Assembler(const std::string& source, std::uint32_t origin)
      : origin_(origin) {
    parse_lines(source);
  }

  AssemblyResult run() {
    AssemblyResult result;
    if (!error_.empty()) {
      result.error = error_;
      return result;
    }
    layout();  // pass 1: addresses of every line and label
    if (!error_.empty()) {
      result.error = error_;
      return result;
    }
    for (const Line& line : lines_) emit(line);  // pass 2
    if (!error_.empty()) {
      result.error = error_;
      return result;
    }
    result.ok = true;
    result.words = std::move(words_);
    result.symbols = std::move(symbols_);
    return result;
  }

 private:
  void fail(std::size_t line, const std::string& message) {
    if (error_.empty())
      error_ = "line " + std::to_string(line) + ": " + message;
  }

  void parse_lines(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    std::size_t number = 0;
    while (std::getline(in, raw)) {
      ++number;
      // Strip comments.
      for (const char* marker : {"#", "//", ";"}) {
        auto pos = raw.find(marker);
        if (pos != std::string::npos) raw = raw.substr(0, pos);
      }
      std::string text = trim(raw);
      // Peel off leading labels (several may stack on one line).
      while (true) {
        auto colon = text.find(':');
        if (colon == std::string::npos) break;
        std::string candidate = trim(text.substr(0, colon));
        if (candidate.empty() || candidate.find(' ') != std::string::npos ||
            candidate.find(',') != std::string::npos) {
          break;
        }
        pending_labels_.push_back({number, candidate});
        text = trim(text.substr(colon + 1));
      }
      if (text.empty()) continue;
      Line line;
      line.number = number;
      std::istringstream ls(text);
      ls >> line.mnemonic;
      line.mnemonic = lower(line.mnemonic);
      std::string rest;
      std::getline(ls, rest);
      // Split operands on commas.
      std::string token;
      std::istringstream rs(rest);
      while (std::getline(rs, token, ',')) {
        token = trim(token);
        if (!token.empty()) line.operands.push_back(token);
      }
      line.labels_before = std::move(pending_labels_);
      pending_labels_.clear();
      lines_.push_back(std::move(line));
    }
  }

  std::size_t size_of(const Line& line) {
    const std::string& m = line.mnemonic;
    if (m == ".word") return line.operands.size();
    if (m == "li") {
      std::optional<std::int64_t> imm = parse_int(line.operands.size() > 1
                                                      ? line.operands[1]
                                                      : std::string{});
      if (!imm) return 2;  // conservatively assume the long form
      return (*imm >= -2048 && *imm < 2048) ? 1 : 2;
    }
    return 1;  // every other (pseudo-)instruction is one word
  }

  void layout() {
    std::uint32_t addr = origin_;
    for (Line& line : lines_) {
      for (const auto& [num, label] : line.labels_before) {
        if (symbols_.count(label)) {
          fail(num, "duplicate label '" + label + "'");
          return;
        }
        symbols_[label] = addr;
      }
      line.address = addr;
      addr += static_cast<std::uint32_t>(4 * size_of(line));
    }
    // Labels trailing at end of file.
    for (const auto& [num, label] : pending_labels_) {
      (void)num;
      symbols_[label] = addr;
    }
  }

  static std::optional<std::int64_t> parse_int(const std::string& token) {
    if (token.empty()) return std::nullopt;
    try {
      std::size_t used = 0;
      long long v = std::stoll(token, &used, 0);
      if (used != token.size()) return std::nullopt;
      return v;
    } catch (...) {
      return std::nullopt;
    }
  }

  std::optional<std::int64_t> value_of(const Line& line, const std::string& token) {
    if (auto v = parse_int(token)) return v;
    auto it = symbols_.find(token);
    if (it != symbols_.end()) return static_cast<std::int64_t>(it->second);
    fail(line.number, "cannot resolve '" + token + "'");
    return std::nullopt;
  }

  int reg_of(const Line& line, std::size_t index) {
    if (index >= line.operands.size()) {
      fail(line.number, "missing register operand");
      return 0;
    }
    int r = parse_register(line.operands[index]);
    if (r < 0) {
      fail(line.number, "bad register '" + line.operands[index] + "'");
      return 0;
    }
    return r;
  }

  /// "imm(rs)" memory operand.
  bool mem_operand(const Line& line, std::size_t index, std::int32_t& imm,
                   int& rs) {
    if (index >= line.operands.size()) {
      fail(line.number, "missing memory operand");
      return false;
    }
    const std::string& token = line.operands[index];
    auto open = token.find('(');
    auto close = token.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      fail(line.number, "expected imm(reg), got '" + token + "'");
      return false;
    }
    const std::string imm_str = trim(token.substr(0, open));
    auto v = value_of(line, imm_str.empty() ? std::string("0") : imm_str);
    if (!v) return false;
    imm = static_cast<std::int32_t>(*v);
    rs = parse_register(trim(token.substr(open + 1, close - open - 1)));
    if (rs < 0) {
      fail(line.number, "bad register in '" + token + "'");
      return false;
    }
    return true;
  }

  void push(std::uint32_t word) { words_.push_back(word); }

  void emit(const Line& line) {
    if (!error_.empty()) return;
    const std::string& m = line.mnemonic;

    // Directives and pseudo-instructions first.
    if (m == ".word") {
      for (const auto& op : line.operands) {
        auto v = value_of(line, op);
        if (!v) return;
        push(static_cast<std::uint32_t>(*v));
      }
      return;
    }
    if (m == "nop") return push(enc_i(0x13, 0, 0, 0, 0));
    if (m == "halt" || m == "ebreak") return push(0x73);
    if (m == "ret") return push(enc_i(0x67, 0, 0, 1, 0));  // jalr x0, ra, 0
    if (m == "mv") {
      int rd = reg_of(line, 0), rs = reg_of(line, 1);
      return push(enc_i(0x13, rd, 0, rs, 0));
    }
    if (m == "li") {
      int rd = reg_of(line, 0);
      if (line.operands.size() < 2) return fail(line.number, "li needs an immediate");
      // Symbols always take the two-word form so pass-1 sizing (which
      // cannot resolve forward references) stays consistent.
      const bool literal = parse_int(line.operands[1]).has_value();
      auto v = value_of(line, line.operands[1]);
      if (!v) return;
      std::int64_t imm = *v;
      if (literal && imm >= -2048 && imm < 2048) {
        return push(enc_i(0x13, rd, 0, 0, static_cast<std::int32_t>(imm)));
      }
      const std::int64_t hi = (imm + 0x800) & ~0xFFFll;
      const std::int32_t lo = static_cast<std::int32_t>(imm - hi);
      push(enc_u(0x37, rd, hi));
      push(enc_i(0x13, rd, 0, rd, lo));
      return;
    }
    if (m == "j") {
      auto v = value_of(line, line.operands.empty() ? "" : line.operands[0]);
      if (!v) return;
      return push(enc_j(0x6F, 0, static_cast<std::int32_t>(*v - line.address)));
    }
    if (m == "beqz" || m == "bnez") {
      int rs = reg_of(line, 0);
      auto v = value_of(line, line.operands.size() > 1 ? line.operands[1] : "");
      if (!v) return;
      return push(enc_b(0x63, m == "beqz" ? 0 : 1, rs, 0,
                        static_cast<std::int32_t>(*v - line.address)));
    }

    auto it = opcodes().find(m);
    if (it == opcodes().end()) return fail(line.number, "unknown mnemonic '" + m + "'");
    const OpInfo& info = it->second;
    switch (info.kind) {
      case OpInfo::R: {
        int rd = reg_of(line, 0), rs1 = reg_of(line, 1), rs2 = reg_of(line, 2);
        return push(enc_r(0x33, rd, info.f3, rs1, rs2, info.f7));
      }
      case OpInfo::I: {
        int rd = reg_of(line, 0), rs1 = reg_of(line, 1);
        auto v = value_of(line, line.operands.size() > 2 ? line.operands[2] : "");
        if (!v) return;
        return push(enc_i(0x13, rd, info.f3, rs1, static_cast<std::int32_t>(*v)));
      }
      case OpInfo::Shift: {
        int rd = reg_of(line, 0), rs1 = reg_of(line, 1);
        auto v = value_of(line, line.operands.size() > 2 ? line.operands[2] : "");
        if (!v || *v < 0 || *v > 31) return fail(line.number, "bad shift amount");
        return push(enc_r(0x13, rd, info.f3, rs1, static_cast<unsigned>(*v), info.f7));
      }
      case OpInfo::Load: {
        int rd = reg_of(line, 0);
        std::int32_t imm;
        int rs1;
        if (!mem_operand(line, 1, imm, rs1)) return;
        return push(enc_i(0x03, rd, info.f3, rs1, imm));
      }
      case OpInfo::Store: {
        int rs2 = reg_of(line, 0);
        std::int32_t imm;
        int rs1;
        if (!mem_operand(line, 1, imm, rs1)) return;
        return push(enc_s(0x23, info.f3, rs1, rs2, imm));
      }
      case OpInfo::Branch: {
        int rs1 = reg_of(line, 0), rs2 = reg_of(line, 1);
        auto v = value_of(line, line.operands.size() > 2 ? line.operands[2] : "");
        if (!v) return;
        return push(enc_b(0x63, info.f3, rs1, rs2,
                          static_cast<std::int32_t>(*v - line.address)));
      }
      case OpInfo::U: {
        int rd = reg_of(line, 0);
        auto v = value_of(line, line.operands.size() > 1 ? line.operands[1] : "");
        if (!v) return;
        // lui/auipc take the immediate already shifted by the user
        // (standard assembler semantics: operand is the upper-20 value).
        return push(enc_u(m == "lui" ? 0x37 : 0x17, rd, *v << 12));
      }
      case OpInfo::J: {
        // jal rd,label  or  jal label (rd = ra).
        int rd = 1;
        std::size_t target_index = 0;
        if (line.operands.size() > 1) {
          rd = reg_of(line, 0);
          target_index = 1;
        }
        auto v = value_of(line, line.operands.size() > target_index
                                    ? line.operands[target_index]
                                    : "");
        if (!v) return;
        return push(enc_j(0x6F, rd, static_cast<std::int32_t>(*v - line.address)));
      }
      case OpInfo::Jalr: {
        int rd = reg_of(line, 0);
        std::int32_t imm;
        int rs1;
        if (!mem_operand(line, 1, imm, rs1)) return;
        return push(enc_i(0x67, rd, 0, rs1, imm));
      }
      case OpInfo::System:
        return push(0x73);
    }
  }

  std::uint32_t origin_;
  std::string error_;
  std::vector<Line> lines_;
  std::vector<std::pair<std::size_t, std::string>> pending_labels_;
  std::vector<std::uint32_t> words_;
  std::map<std::string, std::uint32_t> symbols_;
};

}  // namespace

int parse_register(const std::string& token) {
  std::string t = lower(trim(token));
  if (t.size() >= 2 && t[0] == 'x') {
    try {
      std::size_t used = 0;
      int n = std::stoi(t.substr(1), &used);
      if (used == t.size() - 1 && n >= 0 && n < 32) return n;
    } catch (...) {
    }
    return -1;
  }
  auto it = abi_names().find(t);
  return it == abi_names().end() ? -1 : it->second;
}

AssemblyResult assemble(const std::string& source, std::uint32_t origin) {
  return Assembler(source, origin).run();
}

}  // namespace ntc::sim
