#include "json/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace leveldbpp {
namespace json {

namespace {
const Value kNullValue;
}  // namespace

const Value& Value::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    auto it = obj_->find(key);
    if (it != obj_->end()) return it->second;
  }
  return kNullValue;
}

void AppendQuoted(std::string* out, const Slice& s) {
  out->push_back('"');
  for (size_t i = 0; i < s.size(); i++) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  // Integers serialize without a decimal point so round trips are exact
  // for sequence numbers.
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  out->append(buf);
}

void Value::Serialize(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(out, num_);
      break;
    case Type::kString:
      AppendQuoted(out, Slice(str_));
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : *arr_) {
        if (!first) out->push_back(',');
        first = false;
        v.Serialize(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : *obj_) {
        if (!first) out->push_back(',');
        first = false;
        AppendQuoted(out, Slice(key));
        out->push_back(':');
        v.Serialize(out);
      }
      out->push_back('}');
      break;
    }
  }
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsNumberChar(char c) {
  return IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' ||
         c == '+';
}

int HexValue(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

// The first '"' or '\\' in [q, limit), or limit: the end of a run of
// plain string bytes.
const char* FindQuoteOrBackslash(const char* q, const char* limit) {
  while (q < limit && *q != '"' && *q != '\\') q++;
  return q;
}

void AppendUtf8(std::string* out, unsigned code) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

bool ReadString(const char** p, const char* limit, Slice* value,
                std::string* scratch) {
  const char* q = *p;
  if (q >= limit || *q != '"') return false;
  const char* const start = ++q;
  bool escaped = false;
  while (true) {
    const char* run = q;
    q = FindQuoteOrBackslash(q, limit);
    if (q >= limit) return false;  // Unterminated
    if (scratch != nullptr && escaped) scratch->append(run, q - run);
    if (*q == '"') break;
    // A backslash: from here on the contents are decoded into *scratch.
    if (scratch != nullptr && !escaped) scratch->assign(start, q - start);
    escaped = true;
    if (++q >= limit) return false;
    char decoded;
    switch (*q++) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        if (limit - q < 4) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; i++) {
          const int h = HexValue(*q++);
          if (h < 0) return false;
          code = (code << 4) | static_cast<unsigned>(h);
        }
        if (scratch != nullptr) AppendUtf8(scratch, code);
        continue;
      }
      default:
        return false;
    }
    if (scratch != nullptr) scratch->push_back(decoded);
  }
  if (scratch != nullptr) {
    *value = escaped ? Slice(*scratch) : Slice(start, q - start);
  }
  *p = q + 1;
  return true;
}

bool ReadNumber(const char** p, const char* limit, double* value) {
  const char* q = *p;
  if (q < limit && (*q == '-' || *q == '+')) q++;
  bool digits = false;
  while (q < limit && IsNumberChar(*q)) {
    digits = digits || IsDigit(*q);
    q++;
  }
  if (!digits) return false;
  // strtod needs a NUL-terminated copy of just the token (the input may
  // continue with bytes strtod would also accept, or end unterminated).
  const size_t n = static_cast<size_t>(q - *p);
  char small[64];
  std::string large;
  char* token = small;
  if (n < sizeof(small)) {
    std::memcpy(small, *p, n);
    small[n] = '\0';
  } else {
    large.assign(*p, n);
    token = large.data();
  }
  char* endp = nullptr;
  const double d = std::strtod(token, &endp);
  if (endp != token + n) return false;
  if (value != nullptr) *value = d;
  *p = q;
  return true;
}

namespace {

// Recursive descent over one document. Every value is parsed by ParseValue,
// which builds it into a DOM node or, given a null output, only validates
// and skips it; ScanObjectFields drives the same object rule directly. So
// the DOM and the field scanner accept exactly the same documents.
class Parser {
 public:
  explicit Parser(const Slice& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Parse the value at p_, enclosed by `depth` containers, into *out, or
  /// validate and skip it when out is null.
  bool ParseValue(Value* out, int depth) {
    SkipWs();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        if (depth >= kMaxNestingDepth) return false;
        return out == nullptr ? SkipObject(depth + 1)
                              : BuildObject(out, depth + 1);
      case '[':
        if (depth >= kMaxNestingDepth) return false;
        return out == nullptr ? SkipArray(depth + 1)
                              : BuildArray(out, depth + 1);
      case '"': {
        if (out == nullptr) return ReadString(&p_, end_, nullptr, nullptr);
        Slice s;
        std::string scratch;
        if (!ReadString(&p_, end_, &s, &scratch)) return false;
        *out = Value(s.ToString());
        return true;
      }
      case 't':
        return MatchLiteral("true", out, Value(true));
      case 'f':
        return MatchLiteral("false", out, Value(false));
      case 'n':
        return MatchLiteral("null", out, Value());
      default: {
        double d = 0;
        if (!ReadNumber(&p_, end_, out == nullptr ? nullptr : &d)) {
          return false;
        }
        if (out != nullptr) *out = Value(d);
        return true;
      }
    }
  }

  /// The object rule: parses the object at p_ (after whitespace).
  /// member(key) runs after each member's key and colon and must consume
  /// the member's value. Keys are decoded into *key_scratch; with
  /// key_scratch null they are only validated and member gets an empty key.
  template <typename Member>
  bool ParseObject(std::string* key_scratch, Member&& member) {
    if (!Consume('{')) return false;
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      return true;
    }
    while (true) {
      SkipWs();
      Slice key;
      if (!ReadString(&p_, end_, &key, key_scratch)) return false;
      if (!Consume(':')) return false;
      if (!member(key)) return false;
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ == '}') {
        p_++;
        return true;
      }
      return false;
    }
  }

  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      p_++;
    }
  }

  bool AtEnd() {
    SkipWs();
    return p_ >= end_;
  }

  const char* pos() const { return p_; }

 private:
  bool Consume(char c) {
    SkipWs();
    if (p_ >= end_ || *p_ != c) return false;
    p_++;
    return true;
  }

  bool MatchLiteral(const char* lit, Value* out, Value v) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n) return false;
    if (std::memcmp(p_, lit, n) != 0) return false;
    p_ += n;
    if (out != nullptr) *out = std::move(v);
    return true;
  }

  /// The array rule: element() runs before each element and must consume
  /// it.
  template <typename Element>
  bool ParseArray(Element&& element) {
    if (!Consume('[')) return false;
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      return true;
    }
    while (true) {
      if (!element()) return false;
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ == ']') {
        p_++;
        return true;
      }
      return false;
    }
  }

  bool SkipObject(int depth) {
    return ParseObject(nullptr, [&](const Slice&) {
      return ParseValue(nullptr, depth);
    });
  }

  bool BuildObject(Value* out, int depth) {
    Object obj;
    std::string scratch;
    if (!ParseObject(&scratch, [&](const Slice& key) {
          std::string k = key.ToString();
          Value v;
          if (!ParseValue(&v, depth)) return false;
          obj[std::move(k)] = std::move(v);  // A repeated key: last wins
          return true;
        })) {
      return false;
    }
    *out = Value(std::move(obj));
    return true;
  }

  bool SkipArray(int depth) {
    return ParseArray([&] { return ParseValue(nullptr, depth); });
  }

  bool BuildArray(Value* out, int depth) {
    Array arr;
    if (!ParseArray([&] {
          Value v;
          if (!ParseValue(&v, depth)) return false;
          arr.push_back(std::move(v));
          return true;
        })) {
      return false;
    }
    *out = Value(std::move(arr));
    return true;
  }

  const char* p_;
  const char* const end_;
};

}  // namespace

bool Parse(const Slice& text, Value* out) {
  Parser parser(text);
  Value v;
  if (!parser.ParseValue(&v, 0) || !parser.AtEnd()) {
    *out = Value();
    return false;
  }
  *out = std::move(v);
  return true;
}

bool ScanObjectFields(const Slice& text, std::span<const std::string> keys,
                      const FieldCallback& on_field) {
  Parser parser(text);
  std::string key_scratch;
  auto member = [&](const Slice& key) {
    parser.SkipWs();
    const char* value = parser.pos();
    // Skipping the value leaves key_scratch alone: nested keys are only
    // validated.
    if (!parser.ParseValue(nullptr, 1)) return false;
    for (size_t i = 0; i < keys.size(); i++) {
      if (key == Slice(keys[i])) {
        on_field(i, Slice(value, parser.pos() - value));
      }
    }
    return true;
  };
  return parser.ParseObject(&key_scratch, member) && parser.AtEnd();
}

}  // namespace json
}  // namespace leveldbpp
