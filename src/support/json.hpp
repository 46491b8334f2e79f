// Minimal JSON support: a recursive-descent parser into an ordered DOM plus
// a string escaper. The bench-suite gate uses it to read its committed
// baseline and tests use it to round-trip the exporters' output, so it is
// deliberately tiny rather than general-purpose: objects preserve insertion
// order, numbers are doubles, input must be a single complete document (no
// trailing garbage).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace elision::support::json {

class Value;
struct Member;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_double(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    return is_number() && num_ >= 0 ? static_cast<std::uint64_t>(num_)
                                    : fallback;
  }
  const std::string& as_string() const { return str_; }

  // Array access.
  const std::vector<Value>& items() const { return arr_; }

  // Object access; members() preserves insertion order.
  const std::vector<Member>& members() const { return obj_; }
  // Null if absent or this is not an object.
  const Value* find(std::string_view key) const;

  std::size_t size() const {
    return is_array() ? arr_.size() : is_object() ? obj_.size() : 0;
  }

  // Builders (used by the parser; handy for tests).
  static Value of_bool(bool b) {
    Value v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static Value of_number(double d) {
    Value v;
    v.type_ = Type::kNumber;
    v.num_ = d;
    return v;
  }
  static Value of_string(std::string s) {
    Value v;
    v.type_ = Type::kString;
    v.str_ = std::move(s);
    return v;
  }
  static Value of_array(std::vector<Value> items) {
    Value v;
    v.type_ = Type::kArray;
    v.arr_ = std::move(items);
    return v;
  }
  static Value of_object(std::vector<Member> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<Member> obj_;
};

struct Member {
  std::string key;
  Value value;
};

inline Value Value::of_object(std::vector<Member> members) {
  Value v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(members);
  return v;
}

inline const Value* Value::find(std::string_view key) const {
  for (const auto& m : obj_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

// Escapes a string for embedding between double quotes in JSON output.
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

namespace detail {

inline constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::optional<std::uint32_t> parse_hex4() {
    if (pos + 4 > text.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    pos += 4;
    return v;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (true) {
      if (at_end()) return std::nullopt;
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return std::nullopt;
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp) return std::nullopt;
          std::uint32_t code = *cp;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (!consume_literal("\\u")) return std::nullopt;
            auto lo = parse_hex4();
            if (!lo || *lo < 0xDC00 || *lo > 0xDFFF) return std::nullopt;
            code = 0x10000 + ((code - 0xD800) << 10) + (*lo - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return std::nullopt;  // lone low surrogate
          }
          append_utf8(out, code);
          break;
        }
        default: return std::nullopt;
      }
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos;
    if (!at_end() && peek() == '-') ++pos;
    while (!at_end() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                         peek() == 'e' || peek() == 'E' || peek() == '+' ||
                         peek() == '-')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    // strtod needs a terminated buffer; numbers are short.
    char buf[64];
    const std::size_t len = pos - start;
    if (len >= sizeof buf) return std::nullopt;
    std::memcpy(buf, text.data() + start, len);
    buf[len] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end != buf + len) return std::nullopt;
    return Value::of_number(v);
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (at_end()) return std::nullopt;
    const char c = peek();
    if (c == '{') {
      ++pos;
      std::vector<Member> members;
      skip_ws();
      if (consume('}')) return Value::of_object(std::move(members));
      while (true) {
        skip_ws();
        auto key = parse_string();
        if (!key || !consume(':')) return std::nullopt;
        auto v = parse_value(depth + 1);
        if (!v) return std::nullopt;
        members.push_back({std::move(*key), std::move(*v)});
        if (consume(',')) continue;
        if (consume('}')) return Value::of_object(std::move(members));
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      std::vector<Value> items;
      skip_ws();
      if (consume(']')) return Value::of_array(std::move(items));
      while (true) {
        auto v = parse_value(depth + 1);
        if (!v) return std::nullopt;
        items.push_back(std::move(*v));
        if (consume(',')) continue;
        if (consume(']')) return Value::of_array(std::move(items));
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Value::of_string(std::move(*s));
    }
    if (c == 't') {
      if (!consume_literal("true")) return std::nullopt;
      return Value::of_bool(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) return std::nullopt;
      return Value::of_bool(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) return std::nullopt;
      return Value();
    }
    return parse_number();
  }
};

}  // namespace detail

// Parses one complete JSON document; nullopt on any syntax error, including
// trailing non-whitespace.
inline std::optional<Value> parse(std::string_view text) {
  detail::Parser p{text};
  auto v = p.parse_value(0);
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return v;
}

// A whole file's bytes; nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return std::nullopt;
  std::string data;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

inline std::optional<Value> parse_file(const char* path) {
  const auto data = read_file(path);
  return data ? parse(*data) : std::nullopt;
}

}  // namespace elision::support::json
