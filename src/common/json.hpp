// Minimal locale-proof JSON writer and reader.
//
// Writer: the serving/bench artifacts (bench --json outputs, server summaries)
// need one shared JSON shape instead of ad-hoc printing, and — like the CSV
// serializers (see common/format.hpp) — byte-exact output independent of the
// process locale. JsonWriter emits numbers through std::to_chars (shortest
// round-trip form for doubles), escapes strings per RFC 8259, and tracks
// nesting so commas/keys are placed automatically.
//
// Reader: parse_json() is a small strict recursive-descent RFC 8259 parser
// feeding the declarative run-spec API (api/spec_io). It produces a
// JsonValue DOM in which every value remembers the line/column it started
// at, so both syntax errors (thrown here) and semantic errors (thrown by
// whoever walks the DOM, via JsonValue::error) point into the input text as
// a ParseError. Hardened for hostile input: duplicate object keys, numbers
// outside double range, truncated documents, trailing garbage and
// pathological nesting are all typed errors, never crashes. Numbers parse
// through std::from_chars — locale-proof like the writer.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace deepcam {

class JsonWriter {
 public:
  JsonWriter& begin_object() {
    begin_value();
    out_ += '{';
    stack_.push_back(kObject);
    first_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    pop(kObject);
    out_ += '}';
    return *this;
  }
  JsonWriter& begin_array() {
    begin_value();
    out_ += '[';
    stack_.push_back(kArray);
    first_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    pop(kArray);
    out_ += ']';
    return *this;
  }

  /// Key of the next value; only valid directly inside an object.
  JsonWriter& key(const std::string& name) {
    DEEPCAM_CHECK_MSG(!stack_.empty() && stack_.back() == kObject,
                      "JSON key outside of an object");
    DEEPCAM_CHECK_MSG(!have_key_, "JSON key without a value");
    comma();
    append_quoted(name);
    out_ += ':';
    have_key_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    begin_value();
    append_quoted(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) {
    begin_value();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v) {
    begin_value();
    if (!std::isfinite(v)) {  // JSON has no NaN/Inf; null is the convention
      out_ += "null";
      return *this;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    DEEPCAM_CHECK_MSG(res.ec == std::errc(), "JSON number overflow");
    out_.append(buf, res.ptr);
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    begin_value();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    begin_value();
    out_ += std::to_string(v);
    return *this;
  }
  // Catch the common integer types without double-ambiguity. (std::size_t
  // is std::uint64_t on every target we build for.)
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& kv(const std::string& name, T v) {
    return key(name).value(v);
  }

  /// Finished document. Valid once every container is closed.
  const std::string& str() const {
    DEEPCAM_CHECK_MSG(stack_.empty(), "unclosed JSON container");
    return out_;
  }

 private:
  enum Scope : char { kObject, kArray };

  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void begin_value() {
    if (!stack_.empty() && stack_.back() == kObject) {
      DEEPCAM_CHECK_MSG(have_key_, "JSON value in object without a key");
      have_key_ = false;
    } else {
      comma();
    }
  }
  void pop(Scope s) {
    DEEPCAM_CHECK_MSG(!stack_.empty() && stack_.back() == s && !have_key_,
                      "mismatched JSON container close");
    stack_.pop_back();
    first_ = false;
  }
  void append_quoted(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<char> stack_;
  bool first_ = true;
  bool have_key_ = false;
};

/// One parsed JSON value. Objects keep their members in document order
/// (duplicate keys are a parse error); every value carries the 1-based
/// line/column where it started in the source text.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

  /// Checked accessors: ParseError (pointing at this value) on kind
  /// mismatch — the spec loader reports "expected a number" with the line
  /// of the offending value, not of the whole document.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  // array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Non-negative integral number (rejects fractions, negatives, and
  /// values above 2^53 where doubles stop being exact).
  std::uint64_t as_uint() const;

  /// Object member by key; nullptr when absent (or not an object — callers
  /// check is_object first via members()).
  const JsonValue* find(const std::string& key) const;
  /// Object member by key; ParseError when absent.
  const JsonValue& at(const std::string& key) const;

  /// A ParseError anchored at this value's position — for semantic errors
  /// discovered while walking the DOM ("unknown key", "bad enum value").
  ParseError error(const std::string& what) const {
    return ParseError(what, line_, column_);
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
};

/// Parses one complete JSON document (trailing whitespace only). Throws
/// ParseError with line/column on any syntax error, duplicate object key,
/// out-of-range number, truncation, trailing garbage, or nesting deeper
/// than an internal bound.
JsonValue parse_json(std::string_view text);

/// parse_json over the contents of `path`; Error if unreadable.
JsonValue parse_json_file(const std::string& path);

}  // namespace deepcam
