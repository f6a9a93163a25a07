#include "core/topology_io.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hbsp {
namespace {

struct Token {
  std::string text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument{"topology line " + std::to_string(line) + ": " +
                              message};
}

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  int line = 1;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back({current, line});
      current.clear();
    }
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch == '#') {
      flush();
      while (i < text.size() && text[i] != '\n') ++i;
      ++line;
      continue;
    }
    if (ch == '\n') {
      flush();
      ++line;
    } else if (ch == ' ' || ch == '\t' || ch == '\r') {
      flush();
    } else if (ch == '{' || ch == '}') {
      flush();
      tokens.push_back({std::string(1, ch), line});
    } else {
      current += ch;
    }
  }
  flush();
  return tokens;
}

double parse_number(const Token& token) {
  char* end = nullptr;
  const double value = std::strtod(token.text.c_str(), &end);
  if (end == token.text.c_str() || *end != '\0') {
    fail(token.line, "expected a number, got '" + token.text + "'");
  }
  return value;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  MachineTree parse() {
    std::optional<double> g;
    std::optional<MachineSpec> root;
    while (!at_end()) {
      const Token& head = peek();
      if (head.text == "g") {
        if (g) fail(head.line, "duplicate g");
        advance();
        g = parse_number(expect_any("value for g"));
      } else if (head.text == "machine") {
        if (root) fail(head.line, "only one top-level machine block allowed");
        root = parse_machine();
      } else {
        fail(head.line, "expected 'g' or 'machine', got '" + head.text + "'");
      }
    }
    if (!g) throw std::invalid_argument{"topology: missing 'g' line"};
    if (!root) throw std::invalid_argument{"topology: missing 'machine' block"};
    return MachineTree::build(*root, *g);
  }

 private:
  MachineSpec parse_machine() {
    const Token keyword = expect("machine");
    MachineSpec spec;
    spec.name = expect_any("machine name").text;
    while (!at_end() && peek().text != "{" && peek().text != "}" &&
           peek().text != "machine" && peek().text != "g") {
      const Token attr = advance();
      const auto eq = attr.text.find('=');
      if (eq == std::string::npos) {
        fail(attr.line, "expected key=value attribute, got '" + attr.text + "'");
      }
      const std::string key = attr.text.substr(0, eq);
      const Token value_token{attr.text.substr(eq + 1), attr.line};
      const double value = parse_number(value_token);
      if (key == "r") {
        spec.r = value;
      } else if (key == "cr") {
        spec.compute_r = value;
      } else if (key == "L") {
        spec.sync_L = value;
      } else if (key == "c") {
        spec.c = value;
      } else {
        fail(attr.line, "unknown attribute '" + key + "'");
      }
    }
    if (!at_end() && peek().text == "{") {
      advance();
      while (!at_end() && peek().text != "}") {
        if (peek().text != "machine") {
          fail(peek().line, "expected nested 'machine' or '}'");
        }
        spec.children.push_back(parse_machine());
      }
      if (at_end()) fail(keyword.line, "unterminated '{'");
      advance();  // consume '}'
    }
    return spec;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }
  Token advance() { return tokens_[pos_++]; }

  Token expect(const std::string& text) {
    if (at_end() || peek().text != text) {
      fail(at_end() ? 0 : peek().line, "expected '" + text + "'");
    }
    return advance();
  }

  Token expect_any(const std::string& what) {
    if (at_end()) fail(0, "expected " + what + ", got end of input");
    return advance();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

void serialize_node(const MachineTree& tree, MachineId id, int indent,
                    std::ostringstream& out) {
  const auto& n = tree.node(id);
  out << std::string(static_cast<std::size_t>(indent) * 2, ' ') << "machine ";
  if (n.name.empty()) {
    out << 'm' << id.level << '_' << id.index;
  } else {
    out << n.name;
  }
  char buffer[64];
  // Interior r/compute_r are derived from the coordinator, so only leaves
  // carry them in the file.
  if (tree.is_processor(id)) {
    std::snprintf(buffer, sizeof buffer, " r=%.17g", n.r);
    out << buffer;
    if (n.compute_r != n.r) {
      std::snprintf(buffer, sizeof buffer, " cr=%.17g", n.compute_r);
      out << buffer;
    }
  }
  if (n.sync_L != 0.0) {
    std::snprintf(buffer, sizeof buffer, " L=%.17g", n.sync_L);
    out << buffer;
  }
  if (n.parent >= 0) {
    std::snprintf(buffer, sizeof buffer, " c=%.17g", n.c);
    out << buffer;
  }
  if (!tree.is_processor(id)) {
    out << " {\n";
    for (int i = 0; i < tree.num_children(id); ++i) {
      serialize_node(tree, tree.child(id, i), indent + 1, out);
    }
    out << std::string(static_cast<std::size_t>(indent) * 2, ' ') << "}";
  }
  out << '\n';
}

}  // namespace

MachineTree parse_topology(std::string_view text) {
  return Parser{tokenize(text)}.parse();
}

MachineTree load_topology(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_topology: cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_topology(buffer.str());
}

std::string serialize_topology(const MachineTree& tree) {
  std::ostringstream out;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "g %.17g\n", tree.g());
  out << buffer;
  serialize_node(tree, tree.root(), 0, out);
  return out.str();
}

}  // namespace hbsp
