#include "campaign/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace tz {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::runtime_error(std::string("json: expected ") + want +
                           ", got type " +
                           std::to_string(static_cast<int>(got)));
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::Int) type_error("int", type_);
  return int_;
}

double Json::as_double() const {
  if (type_ == Type::Int) return static_cast<double>(int_);
  if (type_ != Type::Double) type_error("number", type_);
  return dbl_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return str_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return arr_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) type_error("object", type_);
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->find(key));
}

const Json& Json::get(std::string_view key) const {
  if (const Json* v = find(key)) return *v;
  throw std::runtime_error("json: missing key '" + std::string(key) + "'");
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object", type_);
  obj_.emplace_back(std::move(key), std::move(value));
}

// ------------------------------------------------------------------- dump

void json_escape_to(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void json_number_to(double v, std::string& out) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      return;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Type::Int: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, int_);
      out.append(buf, res.ptr);
      return;
    }
    case Type::Double:
      json_number_to(dbl_, out);
      return;
    case Type::String:
      json_escape_to(str_, out);
      return;
    case Type::Array: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        json_escape_to(k, out);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_to(out);
  // Callers keep dumps (checkpoint and merged rows): drop the growth slack.
  out.shrink_to_fit();
  return out;
}

// ------------------------------------------------------------------ parse

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
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
          // Campaign payloads only ever escape control bytes; emit the code
          // point as UTF-8 (surrogate pairs unsupported by design).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
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
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty()) fail("expected a value");
    const bool integral =
        tok.find('.') == std::string_view::npos &&
        tok.find('e') == std::string_view::npos &&
        tok.find('E') == std::string_view::npos;
    if (integral) {
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(v);
      }
      // fall through: out-of-range integer parses as a double
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("malformed number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace tz
