#include "obs/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vmstorm::obs {

void json_escape(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  return std::string(buf, end);
}

std::string json_number(std::uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  return std::string(buf, end);
}

std::string json_number(std::int64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  return std::string(buf, end);
}

void JsonWriter::element() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  element();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  element();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!after_key_);
  element();
  out_ += '"';
  json_escape(k, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  element();
  out_ += '"';
  json_escape(s, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  element();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  element();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  element();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  element();
  out_ += json;
  return *this;
}

// ---- JsonValue / parse_json ----------------------------------------------

namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyItems;
const JsonValue::Members kEmptyMembers;
const JsonValue kNullValue;

}  // namespace

const std::string& JsonValue::as_string() const {
  return is_string() ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::items() const {
  return is_array() ? items_ : kEmptyItems;
}

const JsonValue::Members& JsonValue::members() const {
  return is_object() ? members_ : kEmptyMembers;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullValue;
}

/// Recursive-descent JSON parser over a string_view that builds each value
/// in place. Strict: exactly the RFC 8259 grammar, unique member names,
/// bounded nesting, whole-input consumption.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    JsonValue v;
    VMSTORM_RETURN_IF_ERROR(parse_value(0, &v));
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  using Kind = JsonValue::Kind;
  static constexpr int kMaxDepth = 64;

  Status fail(const std::string& what) const {
    return invalid_argument("json parse error at byte " +
                            std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_literal(std::string_view word, Kind kind, bool flag,
                       JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    out->kind_ = kind;
    out->flag_ = flag;
    return Status::ok();
  }

  Status parse_value(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(depth, out);
      case '[': return parse_array(depth, out);
      case '"':
        out->kind_ = Kind::kString;
        return parse_string(&out->string_);
      case 't': return parse_literal("true", Kind::kBool, true, out);
      case 'f': return parse_literal("false", Kind::kBool, false, out);
      case 'n': return parse_literal("null", Kind::kNull, false, out);
      default: return parse_number(out);
    }
  }

  Status parse_object(int depth, JsonValue* out) {
    ++pos_;  // '{'
    out->kind_ = Kind::kObject;
    JsonValue::Members& members = out->members_;
    // A document is most often one flat record (a trace line). Sizing the
    // top-level object once spares each parse a chain of regrowths whose
    // freed buffers would scatter the caller's own allocations.
    if (depth == 0) members.reserve(16);
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      VMSTORM_RETURN_IF_ERROR(parse_string(&key));
      for (const auto& member : members) {
        if (member.first == key) return fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      members.emplace_back(std::move(key), JsonValue());
      VMSTORM_RETURN_IF_ERROR(parse_value(depth + 1, &members.back().second));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(int depth, JsonValue* out) {
    ++pos_;  // '['
    out->kind_ = Kind::kArray;
    std::vector<JsonValue>& items = out->items_;
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      VMSTORM_RETURN_IF_ERROR(parse_value(depth + 1, &items.emplace_back()));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return fail("expected ',' or ']' in array");
    }
  }

  /// Four hex digits of a \u escape.
  Status parse_hex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') *code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') *code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') *code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    return Status::ok();
  }

  /// UTF-8 encoding of a code point (never a surrogate).
  static void append_utf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xc0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xe0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      *out += static_cast<char>(0xf0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  Status parse_string(std::string* out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      // Copy the run of plain characters in one go.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
             static_cast<unsigned char>(text_[end]) >= 0x20) {
        ++end;
      }
      out->append(text_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') return fail("unescaped control character in string");
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          VMSTORM_RETURN_IF_ERROR(parse_hex4(&code));
          if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // A high surrogate must be followed by an escaped low one; the
            // pair encodes one supplementary-plane code point.
            unsigned low = 0;
            if (text_.compare(pos_, 2, "\\u") != 0) {
              return fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            VMSTORM_RETURN_IF_ERROR(parse_hex4(&low));
            if (low < 0xdc00 || low > 0xdfff) {
              return fail("lone high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          append_utf8(code, out);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  /// Consumes one or more digits; false when there are none.
  bool digits() {
    if (!at_digit()) return false;
    while (at_digit()) ++pos_;
    return true;
  }

  /// number = [ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ]
  ///          [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]
  Status parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    if (!at_digit()) {
      return fail(negative ? "malformed number" : "expected a value");
    }
    if (!consume('0')) digits();
    const bool integer = !(pos_ < text_.size() &&
                           (text_[pos_] == '.' || text_[pos_] == 'e' ||
                            text_[pos_] == 'E'));
    if (consume('.') && !digits()) return fail("malformed number");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("malformed number");
    }
    if (at_digit()) return fail("malformed number");  // a leading zero: "01"
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    out->kind_ = Kind::kNumber;
    if (integer && !negative) {
      const auto [end, ec] = std::from_chars(first, last, out->uint_);
      if (ec == std::errc() && end == last) {
        out->flag_ = true;
        out->number_ = static_cast<double>(out->uint_);
        return Status::ok();
      }
      out->uint_ = 0;
    }
    const auto [end, ec] = std::from_chars(first, last, out->number_);
    if (ec != std::errc() || end != last) return fail("malformed number");
    return Status::ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace vmstorm::obs
