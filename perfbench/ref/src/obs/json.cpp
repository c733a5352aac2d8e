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
  return is_object() && members_ ? *members_ : kEmptyMembers;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object() || !members_) return nullptr;
  for (const auto& [k, v] : *members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullValue;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.flag_ = b;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Members members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::make_shared<Members>(std::move(members));
  return v;
}

namespace {

/// Recursive-descent JSON parser over a string_view. Strict: exactly the
/// RFC 8259 grammar, bounded nesting, whole-input consumption.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    VMSTORM_ASSIGN_OR_RETURN(v, parse_value(0));
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
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

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Result<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        VMSTORM_ASSIGN_OR_RETURN(s, parse_string());
        return JsonValue::make_string(std::move(s));
      }
      case 't':
        if (consume_word("true")) return JsonValue::make_bool(true);
        return fail("invalid literal");
      case 'f':
        if (consume_word("false")) return JsonValue::make_bool(false);
        return fail("invalid literal");
      case 'n':
        if (consume_word("null")) return JsonValue::make_null();
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Result<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue::Members members;
    skip_ws();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      VMSTORM_ASSIGN_OR_RETURN(key, parse_string());
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      VMSTORM_ASSIGN_OR_RETURN(v, parse_value(depth + 1));
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue::make_object(std::move(members));
      return fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    while (true) {
      VMSTORM_ASSIGN_OR_RETURN(v, parse_value(depth + 1));
      items.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue::make_array(std::move(items));
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // opening '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the writer only ever emits \u00XX control escapes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    double v = 0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || end != text_.data() + pos_) {
      return fail("malformed number");
    }
    return JsonValue::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace vmstorm::obs
