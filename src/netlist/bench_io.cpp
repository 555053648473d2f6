#include "netlist/bench_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dft {

namespace {

// The reader makes one pass over the text. Each line is cut into views; every
// net name is interned once in a NameTable (a view into the text, never a
// copy), and a definition keeps its operands as name ids in one flat array.
// The build phase then creates the gates exactly as a name-keyed resolver
// would: inputs, storage placeholders, combinational gates in DFS postorder,
// storage rewiring, outputs.

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("bench line " + std::to_string(line) + ": " + what);
}

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

char ascii_upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

// True when `s` equals the upper-case keyword `kw` ignoring ASCII case.
bool iequals(std::string_view s, std::string_view kw) {
  if (s.size() != kw.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ascii_upper(s[i]) != kw[i]) return false;
  }
  return true;
}

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_upper(c);
  return out;
}

GateType parse_type(std::string_view t, int line) {
  struct Spelling {
    std::string_view name;
    GateType type;
  };
  static constexpr std::array<Spelling, 19> kTypes = {{
      {"BUF", GateType::Buf},         {"BUFF", GateType::Buf},
      {"NOT", GateType::Not},         {"INV", GateType::Not},
      {"AND", GateType::And},         {"NAND", GateType::Nand},
      {"OR", GateType::Or},           {"NOR", GateType::Nor},
      {"XOR", GateType::Xor},         {"XNOR", GateType::Xnor},
      {"MUX", GateType::Mux},         {"TRISTATE", GateType::Tristate},
      {"BUS", GateType::Bus},         {"DFF", GateType::Dff},
      {"SCANDFF", GateType::ScanDff}, {"SRL", GateType::Srl},
      {"ALATCH", GateType::AddressableLatch},
      {"CONST0", GateType::Const0},   {"CONST1", GateType::Const1},
  }};
  for (const Spelling& s : kTypes) {
    if (iequals(t, s.name)) return s.type;
  }
  fail(line, "unknown gate type '" + std::string(t) + "'");
}

void check_arity(GateType type, std::size_t n, int line) {
  const FaninArity a = fanin_arity(type);
  if (n < static_cast<std::size_t>(a.min) ||
      (a.max >= 0 && n > static_cast<std::size_t>(a.max))) {
    fail(line, std::string(gate_type_name(type)) + " gate given " +
                   std::to_string(n) + " fanins");
  }
}

// Open-addressing intern table: one entry per distinct net name.
class NameTable {
 public:
  struct Entry {
    std::string_view name;
    std::uint32_t hash = 0;
    int input_line = 0;        // line of its INPUT declaration, 0 if none
    std::uint32_t def = kNone;  // index of its assignment, kNone if none
    GateId id = kNoGate;       // the gate built for it
  };

  std::uint32_t intern(std::string_view name) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      rehash(slots_.empty() ? 64 : 2 * slots_.size());
    }
    const std::uint32_t h = hash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        entries_.push_back({name, h});
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        return slots_[i] - 1;
      }
      const Entry& e = entries_[slot - 1];
      if (e.hash == h && e.name == name) return slot - 1;
    }
  }

  // Makes room for `n` names without rehashing.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    std::size_t size = 64;
    while (size < 2 * (n + 1)) size *= 2;
    if (size > slots_.size()) rehash(size);
  }

  Entry& operator[](std::uint32_t i) { return entries_[i]; }

 private:
  static std::uint32_t hash(std::string_view s) {
    std::uint32_t h = 2166136261u;  // FNV-1a
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
    return h;
  }

  void rehash(std::size_t size) {
    std::vector<std::uint32_t> slots(size, 0);
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t k = 0; k < entries_.size(); ++k) {
      std::size_t i = entries_[k].hash & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = k + 1;
    }
    slots_ = std::move(slots);
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
};

struct Def {
  GateType type;
  int line;
  std::uint32_t name;
  std::uint32_t first_operand;  // into the flat operand array
  std::uint32_t operands;
};

}  // namespace

Netlist read_bench_string(std::string_view text, std::string netlist_name) {
  NameTable names;
  std::vector<std::uint32_t> input_names;
  std::vector<std::pair<std::uint32_t, int>> output_names;
  // Definition order is preserved so storage chains read back identically.
  std::vector<Def> defs;
  std::vector<std::uint32_t> operands;
  // A well-formed file defines at most one net per line. The cap, one name
  // per eight bytes of text, bounds what blank lines can make it reserve.
  const std::size_t lines = std::min<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1, text.size() / 8);
  names.reserve(lines);
  defs.reserve(lines);

  int line = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view raw = text.substr(pos, end - pos);
    pos = end + 1;
    ++line;
    const std::string_view s = trim(raw.substr(0, raw.find('#')));
    if (s.empty()) continue;

    const auto open = s.find('(');
    const auto eq = s.find('=');
    if (eq == std::string_view::npos) {
      // INPUT(x) / OUTPUT(y)
      const auto close = s.rfind(')');
      if (open == std::string_view::npos ||
          close == std::string_view::npos || close < open) {
        fail(line, "malformed declaration '" + std::string(s) + "'");
      }
      const std::string_view kw = trim(s.substr(0, open));
      const std::string_view arg = trim(s.substr(open + 1, close - open - 1));
      if (iequals(kw, "INPUT")) {
        if (arg.empty()) fail(line, "empty INPUT name");
        const std::uint32_t n = names.intern(arg);
        NameTable::Entry& e = names[n];
        if (e.input_line != 0) {
          fail(line, "input '" + std::string(arg) +
                         "' already declared at line " +
                         std::to_string(e.input_line));
        }
        if (e.def != kNone) {
          fail(line, "net '" + std::string(arg) +
                         "' declared INPUT but assigned at line " +
                         std::to_string(defs[e.def].line));
        }
        e.input_line = line;
        input_names.push_back(n);
      } else if (iequals(kw, "OUTPUT")) {
        output_names.emplace_back(names.intern(arg), line);
      } else {
        fail(line, "unknown keyword '" + upper(kw) + "'");
      }
      continue;
    }

    const std::string_view lhs = trim(s.substr(0, eq));
    const std::string_view rhs = trim(s.substr(eq + 1));
    const auto ropen = rhs.find('(');
    const auto rclose = rhs.rfind(')');
    if (lhs.empty() || ropen == std::string_view::npos ||
        rclose == std::string_view::npos || rclose < ropen) {
      fail(line, "malformed assignment '" + std::string(s) + "'");
    }
    Def d{parse_type(trim(rhs.substr(0, ropen)), line), line, kNone,
          static_cast<std::uint32_t>(operands.size()), 0};
    // Comma-separated operands; an empty last one (a trailing comma) is
    // dropped, any other empty one is an error.
    const std::string_view args = rhs.substr(ropen + 1, rclose - ropen - 1);
    for (std::size_t a = 0;;) {
      const auto comma = args.find(',', a);
      const std::string_view op = trim(args.substr(a, comma - a));
      if (comma == std::string_view::npos) {
        if (!op.empty()) operands.push_back(names.intern(op));
        break;
      }
      if (op.empty()) fail(line, "empty operand");
      operands.push_back(names.intern(op));
      a = comma + 1;
    }
    d.operands = static_cast<std::uint32_t>(operands.size()) - d.first_operand;
    d.name = names.intern(lhs);
    const NameTable::Entry& e = names[d.name];
    if (e.def != kNone) {
      fail(line, "net '" + std::string(lhs) +
                     "' redefined (first assigned at line " +
                     std::to_string(defs[e.def].line) + ")");
    }
    if (e.input_line != 0) {
      fail(line, "net '" + std::string(lhs) + "' is declared INPUT at line " +
                     std::to_string(e.input_line) +
                     " and cannot also be assigned");
    }
    // A storage element may feed back on itself (q = DFF(q) is a hold
    // loop); a combinational gate driving itself can never stabilize.
    if (!is_storage(d.type)) {
      for (std::uint32_t k = 0; k < d.operands; ++k) {
        if (operands[d.first_operand + k] == d.name) {
          fail(line, "combinational net '" + std::string(lhs) +
                         "' drives itself");
        }
      }
    }
    names[d.name].def = static_cast<std::uint32_t>(defs.size());
    defs.push_back(d);
  }

  Netlist nl(std::move(netlist_name));
  // Inputs, the storage placeholder, one gate per definition, outputs.
  nl.reserve(input_names.size() + 1 + defs.size() + output_names.size());
  for (std::uint32_t n : input_names) {
    names[n].id = nl.add_input(std::string(names[n].name));
  }

  // Storage elements break cycles, so create them first as placeholders
  // driven by a temporary const; then add combinational gates in dependency
  // order; finally rewire storage fanins.
  GateId placeholder = kNoGate;
  for (const Def& d : defs) {
    if (!is_storage(d.type)) continue;
    if (placeholder == kNoGate) placeholder = nl.add_gate(GateType::Const0, {});
    check_arity(d.type, d.operands, d.line);
    names[d.name].id =
        nl.add_gate(d.type, std::vector<GateId>(d.operands, placeholder),
                    std::string(names[d.name].name));
  }

  // Combinational gates: depth-first resolution with an explicit stack (the
  // input is a DAG once storage is pre-created). Recursion here would
  // overflow the call stack on deep dependency chains -- a bench file that
  // lists a long buffer chain in reverse order is legal input, and at
  // multi-megabyte sizes its chain depth is far past any thread's stack.
  std::vector<char> visiting(defs.size(), 0);
  struct Frame {
    std::uint32_t def;
    std::uint32_t next_operand = 0;
  };
  std::vector<Frame> stack;
  // Pushes net `n` if it still needs resolving; throws on undefined nets and
  // on cycles (a def re-entered while its fanins are being resolved).
  auto push = [&](std::uint32_t n, int from_line) {
    const NameTable::Entry& e = names[n];
    if (e.id != kNoGate) return;
    if (e.def == kNone) {
      fail(from_line, "undefined net '" + std::string(e.name) + "'");
    }
    if (visiting[e.def]) {
      fail(defs[e.def].line, "combinational cycle through net '" +
                                 std::string(e.name) + "'");
    }
    visiting[e.def] = 1;
    stack.push_back({e.def});
  };
  std::vector<GateId> fanin;
  for (const Def& root : defs) {
    if (is_storage(root.type)) continue;
    push(root.name, root.line);
    while (!stack.empty()) {
      Frame& top = stack.back();
      const Def& d = defs[top.def];
      if (top.next_operand < d.operands) {
        // Descend into the next unresolved fanin (the reference into the
        // stack is not used after the potential reallocation in push).
        push(operands[d.first_operand + top.next_operand++], d.line);
        continue;
      }
      // Every fanin resolved: emit this gate in DFS postorder, exactly the
      // order the recursive formulation produced.
      check_arity(d.type, d.operands, d.line);
      fanin.clear();
      for (std::uint32_t k = 0; k < d.operands; ++k) {
        fanin.push_back(names[operands[d.first_operand + k]].id);
      }
      visiting[top.def] = 0;
      names[d.name].id =
          nl.add_gate(d.type, fanin, std::string(names[d.name].name));
      stack.pop_back();
    }
  }

  // Rewire storage fanins from placeholders to their real drivers.
  for (const Def& d : defs) {
    if (!is_storage(d.type)) continue;
    for (std::uint32_t k = 0; k < d.operands; ++k) {
      const NameTable::Entry& e = names[operands[d.first_operand + k]];
      if (e.id == kNoGate) {
        fail(d.line, "undefined net '" + std::string(e.name) + "'");
      }
      nl.set_fanin(names[d.name].id, static_cast<int>(k), e.id);
    }
  }

  for (const auto& [n, oline] : output_names) {
    const NameTable::Entry& e = names[n];
    if (e.id == kNoGate) {
      fail(oline, "undefined output net '" + std::string(e.name) + "'");
    }
    const std::string base = "out_" + std::string(e.name);
    std::string oname = base;
    for (int k = 2; nl.find(oname).has_value(); ++k) {
      oname = base + "_" + std::to_string(k);
    }
    nl.add_output(e.id, std::move(oname));
  }
  nl.validate();
  return nl;
}

Netlist read_bench(std::istream& in, std::string netlist_name) {
  std::string text;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  return read_bench_string(text, std::move(netlist_name));
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open bench file: " + path);
  return read_bench(in, path);
}

namespace {

// Counts what the writer would append, so the text is sized in a first pass
// and written into one allocation in the second.
struct TextSize {
  std::size_t n = 0;
  TextSize& operator+=(std::string_view s) {
    n += s.size();
    return *this;
  }
  TextSize& operator+=(char) {
    ++n;
    return *this;
  }
};

template <class Out>
void append_label(Out& out, const Netlist& nl, GateId g) {
  const std::string_view name = nl.gate_name(g);
  if (!name.empty()) {
    out += name;
    return;
  }
  char buf[16];
  const auto r = std::to_chars(buf, buf + sizeof buf, g);
  out += 'g';
  out += std::string_view(buf, static_cast<std::size_t>(r.ptr - buf));
}

template <class Out>
void append_bench(Out& out, const Netlist& nl) {
  out += "# netlist: ";
  out += nl.name().empty() ? std::string_view("(unnamed)") : nl.name();
  out += '\n';
  for (GateId g : nl.inputs()) {
    out += "INPUT(";
    append_label(out, nl, g);
    out += ")\n";
  }
  for (GateId g : nl.outputs()) {
    out += "OUTPUT(";
    append_label(out, nl, nl.fanin(g).front());
    out += ")\n";
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType t = nl.type(g);
    if (t == GateType::Input || t == GateType::Output) continue;
    // Skip dead unnamed constants (e.g. the reader's storage placeholder).
    if ((t == GateType::Const0 || t == GateType::Const1) &&
        nl.gate_name(g).empty() && nl.fanout(g).empty()) {
      continue;
    }
    append_label(out, nl, g);
    out += " = ";
    out += gate_type_name(t);
    out += '(';
    const auto& f = nl.fanin(g);
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i != 0) out += ", ";
      append_label(out, nl, f[i]);
    }
    out += ")\n";
  }
}

}  // namespace

std::string write_bench_string(const Netlist& nl) {
  TextSize size;
  append_bench(size, nl);
  std::string out;
  out.reserve(size.n);
  append_bench(out, nl);
  return out;
}

void write_bench(std::ostream& out, const Netlist& nl) {
  out << write_bench_string(nl);
}

}  // namespace dft
