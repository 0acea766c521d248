// json.h — a minimal JSON value with parser and writer.
//
// The campaign engine persists machine-readable artefacts (per-scenario
// outcomes, campaign summaries, bench trajectories) and must read them
// back for --resume, so both directions live here. The value model is the
// usual tagged union (null/bool/number/string/array/object); objects keep
// insertion order so written files are stable byte-for-byte — resumed
// campaigns must reproduce identical artefacts. No external dependency;
// the dialect is plain RFC 8259 minus \uXXXX escapes beyond ASCII needs.
//
// All output goes through one streaming formatter, JsonWriter: Json::dump
// is a walk of the value into it, and large documents (stored outcomes,
// daemon replies) are written straight from their source structs without
// building a Json value first. The bytes are part of the outcome store's
// contract — shards written by different builds must merge byte-identically
// — so the number format is fixed: integers below 1e15 in magnitude print
// as printf's "%.0f" would, every other finite value as "%.17g" would
// (max_digits10, so every double round-trips exactly). Both are produced
// with std::to_chars, which the standard defines as exactly that printf
// output, without printf's cost. Non-finite values cannot be written.
//
// The parser reads numbers with std::from_chars on the text in place and
// rejects literals whose magnitude a double cannot hold ("1e999",
// "1e-400") as malformed, instead of reading them as inf or 0: what it
// accepts is exactly what the writer can write back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hmpt {

class Json;
using JsonArray = std::vector<Json>;

/// Order-preserving string->Json map (insertion order, like the writer
/// emits and the parser reads — deterministic round trips).
class JsonObject {
 public:
  Json& operator[](const std::string& key);          ///< insert or fetch
  const Json* find(const std::string& key) const;    ///< null when absent
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return entries_.size(); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<std::pair<std::string, Json>> entries_;
};

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;  ///< null
  Json(const Json& other);
  Json(Json&&) noexcept = default;
  Json& operator=(const Json& other);
  Json& operator=(Json&&) noexcept = default;
  ~Json() = default;

  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double v) : kind_(Kind::Number), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(std::string s);
  Json(JsonArray a);
  Json(JsonObject o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  /// Typed accessors; throw hmpt::Error on a kind mismatch so malformed
  /// artefacts fail loudly instead of reading as zeroes.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; throws when this is not an object or the key is
  /// missing. `get_or` variants return the fallback on a missing key only.
  const Json& at(const std::string& key) const;
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  /// Serialise. `indent` < 0 = compact one-liner; >= 0 pretty-prints with
  /// that many spaces per level. Numbers round-trip exactly (max_digits10).
  std::string dump(int indent = 2) const;

  /// Parse a document; throws hmpt::Error with offset context on garbage.
  static Json parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Containers live behind pointers because JsonObject (which stores Json
  // by value) is still incomplete here; copies are deep, so a Json behaves
  // like any other value type.
  std::unique_ptr<JsonArray> array_;
  std::unique_ptr<JsonObject> object_;
};

/// The writer's two leaf formatters, for hand-rolled writers of the same
/// dialect (the trace recorder): `s` as a quoted, escaped string literal,
/// and a finite number in the fixed format above (throws hmpt::Error when
/// `v` is not finite).
void append_json_string(std::string& out, std::string_view s);
void append_json_number(std::string& out, double v);

/// Streaming JSON formatter, appending to a caller-owned string. The
/// layout is Json::dump's: `indent` < 0 writes compact one-liners; >= 0
/// puts every array element and object member on its own line, indented
/// `indent` spaces per level, with ": " between key and value, writes
/// empty containers as `[]`/`{}`, and ends a finished top-level value with
/// a newline. Inside an object every value must be preceded by key().
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 2)
      : out_(out), indent_(indent) {}

  void begin_object() { open('{', true); }
  void end_object() { close('}', true); }
  void begin_array() { open('[', false); }
  void end_array() { close(']', false); }
  /// The next member's key; the member's value follows.
  void key(std::string_view name);

  void null();
  void value(bool b);
  void value(double v);  ///< throws hmpt::Error when not finite
  void value(int v) { value(static_cast<double>(v)); }
  void value(std::uint64_t v) { value(static_cast<double>(v)); }
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(const std::string& s) { value(std::string_view(s)); }
  /// A whole value tree.
  void value(const Json& v);

 private:
  struct Frame {
    bool object = false;
    bool has_members = false;
  };

  void before_value();
  void after_value();
  void newline(std::size_t depth);
  void open(char bracket, bool object);
  void close(char bracket, bool object);

  std::string& out_;
  const int indent_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace hmpt
