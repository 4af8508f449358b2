#include "util/json.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace clear::util {

namespace {

// The tool's documents nest a fixed, shallow number of levels; 32 bounds
// a hostile input without recursing the stack away.
constexpr int kMaxDepth = 32;

class Reader {
 public:
  Reader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  bool parse(Json* out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  // Consumes `c` (after whitespace) if it is next.
  bool eat(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (static_cast<std::size_t>(end_ - p_) < len ||
        std::memcmp(p_, word, len) != 0) {
      return false;
    }
    p_ += len;
    return true;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return false;
      c = *p_++;
      switch (c) {
        case '"': case '\\': case '/': out->push_back(c); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned v = 0;
          if (end_ - p_ < 4 ||
              std::from_chars(p_, p_ + 4, v, 16).ptr != p_ + 4) {
            return false;
          }
          p_ += 4;
          out->push_back(v < 0x80 ? static_cast<char>(v) : '?');
          break;
        }
        default: return false;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number(Json* out) {
    const char* start = p_;
    bool integral = true;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '+' ||
                          *p_ == '-' || *p_ == '.' || *p_ == 'e' ||
                          *p_ == 'E')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') integral = false;
      ++p_;
    }
    if (p_ == start) return false;
    const std::string token(start, p_);
    char* rest = nullptr;
    out->kind = Json::Kind::kNum;
    out->num = std::strtod(token.c_str(), &rest);
    if (*rest != '\0') return false;
    if (integral && token[0] != '-') {
      out->u = std::strtoull(token.c_str(), nullptr, 10);
    } else if (out->num > 0) {
      out->u = static_cast<std::uint64_t>(out->num);
    }
    return true;
  }
  bool value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (p_ == end_) return false;
    if (eat('{')) {
      out->kind = Json::Kind::kObj;
      if (eat('}')) return true;
      do {
        std::string key;
        Json v;
        if (!string(&key) || !eat(':') || !value(&v, depth + 1)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
      } while (eat(','));
      return eat('}');
    }
    if (eat('[')) {
      out->kind = Json::Kind::kArr;
      if (eat(']')) return true;
      do {
        Json v;
        if (!value(&v, depth + 1)) return false;
        out->arr.push_back(std::move(v));
      } while (eat(','));
      return eat(']');
    }
    if (*p_ == '"') {
      out->kind = Json::Kind::kStr;
      return string(&out->str);
    }
    if (literal("true")) {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return true;
    }
    if (literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;  // kind stays kNull
    return number(out);
  }

  const char* p_;
  const char* end_;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool parse_json(const std::string& text, Json* out) {
  *out = Json();
  return Reader(text.data(), text.size()).parse(out);
}

}  // namespace clear::util
