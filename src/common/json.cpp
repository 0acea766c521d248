#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <system_error>
#include <utility>

#include "common/error.h"

namespace hmpt {

// -------------------------------------------------------------- JsonObject

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_)
    if (k == key) return v;
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

// ------------------------------------------------------------------- value

Json::Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
Json::Json(JsonArray a)
    : kind_(Kind::Array), array_(std::make_unique<JsonArray>(std::move(a))) {}
Json::Json(JsonObject o)
    : kind_(Kind::Object),
      object_(std::make_unique<JsonObject>(std::move(o))) {}

Json::Json(const Json& other)
    : kind_(other.kind_),
      bool_(other.bool_),
      number_(other.number_),
      string_(other.string_) {
  if (other.array_) array_ = std::make_unique<JsonArray>(*other.array_);
  if (other.object_) object_ = std::make_unique<JsonObject>(*other.object_);
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

bool Json::as_bool() const {
  HMPT_REQUIRE(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  HMPT_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return number_;
}

const std::string& Json::as_string() const {
  HMPT_REQUIRE(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

const JsonArray& Json::as_array() const {
  HMPT_REQUIRE(kind_ == Kind::Array, "JSON value is not an array");
  return *array_;
}

const JsonObject& Json::as_object() const {
  HMPT_REQUIRE(kind_ == Kind::Object, "JSON value is not an object");
  return *object_;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = as_object().find(key);
  if (value == nullptr) raise("JSON object has no key '" + key + "'");
  return *value;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = as_object().find(key);
  return value == nullptr ? fallback : value->as_number();
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
  const Json* value = as_object().find(key);
  return value == nullptr ? std::move(fallback) : value->as_string();
}

// ------------------------------------------------------------------ writer

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_json_number(std::string& out, double v) {
  HMPT_REQUIRE(std::isfinite(v), "JSON cannot represent a non-finite number");
  // Integers print without an exponent or trailing ".0" (stable, compact);
  // everything else uses max_digits10 so the value round-trips exactly.
  // to_chars with a precision is specified as printf's "%.0f" / "%.17g".
  char buf[32];
  std::to_chars_result result{};
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    // Below 1e15 an integral double converts to int64 exactly, and integer
    // to_chars prints the same digits several times faster; only -0 needs
    // the floating-point path to keep its sign ("%.0f" prints "-0").
    result = v == 0.0 && std::signbit(v)
                 ? std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, 0)
                 : std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<std::int64_t>(v));
  } else {
    result = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general,
                           std::numeric_limits<double>::max_digits10);
  }
  out.append(buf, result.ptr);
}

void JsonWriter::newline(std::size_t depth) {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  HMPT_REQUIRE(!frame.object, "JsonWriter: object member needs a key");
  if (frame.has_members) out_ += ',';
  frame.has_members = true;
  newline(stack_.size());
}

void JsonWriter::after_value() {
  if (stack_.empty() && indent_ >= 0) out_ += '\n';
}

void JsonWriter::key(std::string_view name) {
  HMPT_REQUIRE(!stack_.empty() && stack_.back().object && !after_key_,
               "JsonWriter: key outside an object");
  Frame& frame = stack_.back();
  if (frame.has_members) out_ += ',';
  frame.has_members = true;
  newline(stack_.size());
  append_json_string(out_, name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
}

void JsonWriter::open(char bracket, bool object) {
  before_value();
  out_ += bracket;
  stack_.push_back(Frame{object, false});
}

void JsonWriter::close(char bracket, bool object) {
  HMPT_REQUIRE(!stack_.empty() && stack_.back().object == object &&
                   !after_key_,
               "JsonWriter: unbalanced container");
  const bool has_members = stack_.back().has_members;
  stack_.pop_back();
  if (has_members) newline(stack_.size());
  out_ += bracket;
  after_value();
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
  after_value();
}

void JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  after_value();
}

void JsonWriter::value(double v) {
  before_value();
  append_json_number(out_, v);
  after_value();
}

void JsonWriter::value(std::string_view s) {
  before_value();
  append_json_string(out_, s);
  after_value();
}

void JsonWriter::value(const Json& v) {
  switch (v.kind()) {
    case Json::Kind::Null: null(); return;
    case Json::Kind::Bool: value(v.as_bool()); return;
    case Json::Kind::Number: value(v.as_number()); return;
    case Json::Kind::String: value(v.as_string()); return;
    case Json::Kind::Array:
      begin_array();
      for (const Json& item : v.as_array()) value(item);
      end_array();
      return;
    case Json::Kind::Object:
      begin_object();
      for (const auto& [name, member] : v.as_object()) {
        key(name);
        value(member);
      }
      end_object();
      return;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    raise("JSON parse error at offset " + std::to_string(pos_) + ": " +
          message);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't' && consume_keyword("true")) return Json(true);
    if (c == 'f' && consume_keyword("false")) return Json(false);
    if (c == 'n' && consume_keyword("null")) return Json();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  Json parse_object() {
    expect('{');
    JsonObject object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      object[key] = parse_value();
      skip_ws();
      const char next = take();
      if (next == '}') return Json(std::move(object));
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      const char next = take();
      if (next == ']') return Json(std::move(array));
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote or escape.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\')
        ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (take() == '"') return out;
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // Latin-1 range and reject the rest rather than mis-decode.
          if (code > 0xFF) fail("\\u escape beyond \\u00ff unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    // The whole token must be one number a double can hold: out-of-range
    // literals would read back as inf (unwritable) or a silent 0.
    double value = 0.0;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, value);
    if (ec != std::errc() || ptr != end) fail("malformed number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace hmpt
