// Deterministic JSON emission for the observability subsystem.
//
// The exported metric snapshots and traces double as regression oracles:
// two runs with the same seed must produce byte-identical output. That
// rules out iteration over unordered containers, locale-dependent or
// precision-lossy number formatting, and wall-clock timestamps. JsonWriter
// gives the caller full control of key order and formats numbers with
// std::to_chars (shortest round-trip form), so equal inputs serialize to
// equal bytes on a given toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace vmstorm::obs {

/// Appends the JSON escaping of `s` (without surrounding quotes) to *out.
void json_escape(std::string_view s, std::string* out);

/// Shortest round-trip decimal form of `v`; non-finite values render as
/// "null" (metrics should never produce them, but a crash in the exporter
/// would be worse than a null cell).
std::string json_number(double v);
std::string json_number(std::uint64_t v);
std::string json_number(std::int64_t v);

/// Streaming JSON writer with explicit structure calls. Commas and quoting
/// are handled; nesting is tracked so misuse asserts in debug builds.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or begin_object/begin_array.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Appends pre-serialized JSON (e.g. a nested snapshot) verbatim.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void element();  // comma bookkeeping before a value/opening bracket

  std::string out_;
  std::vector<bool> first_;  // per open scope: no element emitted yet
  bool after_key_ = false;
};

/// Parsed JSON document node. The read-side complement of JsonWriter, used
/// to load artifacts and traces back (vmstormctl engine-stats, timeline,
/// critpath). Object members keep source order; lookup is linear —
/// artifacts are small and trace lines are flat.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors return the natural zero value on kind mismatch, so
  /// renderers can chase optional paths without branching at every level.
  bool as_bool() const { return is_bool() && flag_; }
  double as_number() const { return is_number() ? number_ : 0.0; }
  /// Exact value of a plain non-negative integer token ("0", "42") that
  /// fits in uint64_t — span ids past 2^53 survive where as_number() would
  /// round. False/0 for every other number form ("-1", "1.0", "1e3").
  bool is_uint() const { return is_number() && flag_; }
  std::uint64_t as_uint() const { return is_uint() ? uint_ : 0; }
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const Members& members() const;

  /// Object member by key, nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Chained find: find(k) with a null-object fallback, so
  /// v["overhead"]["arms"] never dereferences null.
  const JsonValue& operator[](std::string_view key) const;

 private:
  friend class JsonParser;  // parse_json builds values in place

  Kind kind_ = Kind::kNull;
  bool flag_ = false;  // kBool: the value; kNumber: uint_ is exact
  double number_ = 0;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  Members members_;
};

/// Strict recursive-descent parse of a complete RFC 8259 document: no
/// trailing garbage, no comments, no duplicate member names, bounded
/// nesting depth.
Result<JsonValue> parse_json(std::string_view text);

}  // namespace vmstorm::obs
