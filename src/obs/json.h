// Minimal JSON document parser and the toolkit's one JSON writer.
//
// The parser reads just enough of RFC 8259 to read back what this toolkit
// writes -- run reports, lint diagnostics, bench output, the checked-in
// schemas -- so the schema validator (obs/schema.h) and the golden tests
// can compare documents structurally instead of by string. Numbers are
// stored as double; values outside the exact-double integer range are not
// needed by any consumer here. Parse errors throw std::invalid_argument
// with a byte offset.
//
// Hardened for untrusted input (dft-serve feeds it raw client bytes):
//  * nesting depth is capped (kMaxJsonDepth) so a "[[[[..." line cannot
//    blow the parser's stack;
//  * numbers that overflow double to +/-inf are rejected (a client cannot
//    smuggle inf/NaN into a field every consumer treats as finite);
//  * raw control characters inside strings are rejected per RFC 8259
//    (every writer in this repo \u-escapes them);
//  * truncated input fails with the byte offset where data ran out, like
//    every other parse error.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dft::obs {

// Maximum container nesting the parser accepts. Deep enough for every
// document this repo writes (reports nest 3 levels) with two orders of
// magnitude of headroom; shallow enough that adversarial input cannot
// drive the recursive-descent parser into stack exhaustion.
inline constexpr int kMaxJsonDepth = 96;

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }
  static std::string_view kind_name(Kind k);

  // Typed accessors; throw std::invalid_argument on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::map<std::string, Json>& as_object() const;

  // Object member lookup: nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  static Json make_null();
  static Json make_bool(bool b);
  static Json make_number(double d);
  static Json make_string(std::string s);
  static Json make_array(std::vector<Json> a);
  static Json make_object(std::map<std::string, Json> o);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

// Parses one JSON document; trailing non-whitespace is an error.
Json parse_json(std::string_view text);

// Appends `s` as a JSON string literal: '"', '\\', \n, \t and \r get their
// short escapes, every other byte below 0x20 becomes \u00xx, and all other
// bytes (0x7f, multi-byte UTF-8) pass through unchanged.
void append_json_string(std::string_view s, std::string& out);

// Compact single-line JSON writer. Every document this toolkit emits -- the
// run report, the Chrome trace, progress lines, lint JSON and the serve
// protocol -- is rendered through it, so escaping and number formatting
// live in one place: integers print exactly, doubles as printf "%.12g".
// Commas are inserted automatically; the caller keeps begin/end balanced
// and gives every object member a key.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& string_value(std::string_view v);
  JsonWriter& int_value(long long v);
  JsonWriter& uint_value(unsigned long long v);
  JsonWriter& number_value(double v);
  JsonWriter& bool_value(bool v);
  JsonWriter& raw_value(std::string_view json);  // a prebuilt JSON value

  JsonWriter& string_field(std::string_view k, std::string_view v) {
    return key(k).string_value(v);
  }
  JsonWriter& int_field(std::string_view k, long long v) {
    return key(k).int_value(v);
  }
  JsonWriter& uint_field(std::string_view k, unsigned long long v) {
    return key(k).uint_value(v);
  }
  JsonWriter& number_field(std::string_view k, double v) {
    return key(k).number_value(v);
  }
  JsonWriter& bool_field(std::string_view k, bool v) {
    return key(k).bool_value(v);
  }
  JsonWriter& raw_field(std::string_view k, std::string_view json) {
    return key(k).raw_value(json);
  }

  // The text written so far; leaves the writer empty.
  std::string take();

 private:
  void separate();  // the comma before a value or key, when one is due

  std::string out_;
  bool comma_due_ = false;
};

}  // namespace dft::obs
