#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace dft::obs {

std::string_view Json::kind_name(Kind k) {
  switch (k) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void kind_error(Json::Kind want, Json::Kind got) {
  throw std::invalid_argument("JSON value is " +
                              std::string(Json::kind_name(got)) + ", wanted " +
                              std::string(Json::kind_name(want)));
}

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) kind_error(Kind::Bool, kind_);
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) kind_error(Kind::Number, kind_);
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) kind_error(Kind::String, kind_);
  return str_;
}

const std::vector<Json>& Json::as_array() const {
  if (kind_ != Kind::Array) kind_error(Kind::Array, kind_);
  return arr_;
}

const std::map<std::string, Json>& Json::as_object() const {
  if (kind_ != Kind::Object) kind_error(Kind::Object, kind_);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

Json Json::make_null() { return Json(); }

Json Json::make_bool(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::make_number(double d) {
  Json j;
  j.kind_ = Kind::Number;
  j.num_ = d;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array(std::vector<Json> a) {
  Json j;
  j.kind_ = Kind::Array;
  j.arr_ = std::move(a);
  return j;
}

Json Json::make_object(std::map<std::string, Json> o) {
  Json j;
  j.kind_ = Kind::Object;
  j.obj_ = std::move(o);
  return j;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + why);
  }

  // Caps container nesting: adversarial "[[[[..." input must fail with a
  // parse error, not exhaust the recursive-descent parser's stack.
  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) {
      if (++parser->depth_ > kMaxJsonDepth) {
        parser->fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                     " levels");
      }
    }
    ~DepthGuard() { --parser->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser* parser;
  };

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        const DepthGuard guard(this);
        return parse_object();
      }
      case '[': {
        const DepthGuard guard(this);
        return parse_array();
      }
      case '"': return Json::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return Json::make_bool(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json::make_bool(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json::make_null();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    std::map<std::string, Json> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json::make_object(std::move(members));
    }
  }

  Json parse_array() {
    expect('[');
    std::vector<Json> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;  // point the error at the offending byte
        fail("raw control character in string (must be \\u-escaped)");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by any writer in this repo).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      bool any = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
      return any;
    };
    if (!digits()) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("bad number exponent");
    }
    const std::string tok(text_.substr(start, pos_ - start));
    const double v = std::strtod(tok.c_str(), nullptr);
    // The grammar above admits only finite decimal literals, but a large
    // exponent ("1e999") overflows strtod to +/-inf; every consumer of
    // as_number() assumes a finite value, so reject it here with the
    // number's own offset rather than propagate an inf downstream.
    if (std::isinf(v)) {
      pos_ = start;
      fail("number overflows double ('" + tok + "')");
    }
    return Json::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void append_json_string(std::string_view s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonWriter::separate() {
  if (comma_due_) out_ += ',';
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  comma_due_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  comma_due_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  append_json_string(k, out_);
  out_ += ':';
  comma_due_ = false;
  return *this;
}

JsonWriter& JsonWriter::string_value(std::string_view v) {
  separate();
  append_json_string(v, out_);
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::int_value(long long v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::uint_value(unsigned long long v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::number_value(double v) {
  separate();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out_ += buf;
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::bool_value(bool v) {
  return raw_value(v ? "true" : "false");
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  separate();
  out_ += json;
  comma_due_ = true;
  return *this;
}

std::string JsonWriter::take() {
  std::string text = std::move(out_);
  out_.clear();
  comma_due_ = false;
  return text;
}

}  // namespace dft::obs
