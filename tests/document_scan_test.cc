// The document field scanner against the DOM it replaced.
//
// JsonAttributeExtractor reads attributes with one json::ScanObjectFields
// pass that builds no DOM. Its contract is to give the DOM's answer on
// every input, so this suite keeps the recursive-descent DOM extractor it
// replaced, frozen below, as the oracle, and checks on pinned cases and on
// 12 000 seeded mutations of generated documents that the scanner, the
// single-attribute Extract and json::Parse all agree with it. Run under
// AddressSanitizer by scripts/check.sh: a scanner that reads past a
// mutated document's end fails there. The one intended difference is the
// nesting bound (json::kMaxNestingDepth), which the oracle lacks; the
// NestingDepth tests pin it separately.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/document.h"
#include "core/secondary_db.h"
#include "env/env.h"
#include "json/json.h"
#include "util/random.h"
#include "workload/tweet_generator.h"

namespace leveldbpp {
namespace {

// ---------------------------------------------------------------------------
// Frozen oracle: the DOM parser and extractor as they were before the
// scanner. Do not "fix" or share code with src/json: the point is an
// independent copy of the old behaviour.
namespace oracle {

class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  bool ParseValue(json::Value* out) {
    SkipWs();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = json::Value(std::move(s));
        return true;
      }
      case 't':
        if (Match("true")) {
          *out = json::Value(true);
          return true;
        }
        return false;
      case 'f':
        if (Match("false")) {
          *out = json::Value(false);
          return true;
        }
        return false;
      case 'n':
        if (Match("null")) {
          *out = json::Value();
          return true;
        }
        return false;
      default:
        return ParseNumber(out);
    }
  }

  bool AtEnd() {
    SkipWs();
    return p_ >= end_;
  }

 private:
  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      p_++;
    }
  }

  bool Match(const char* lit) {
    size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n) return false;
    if (std::memcmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (p_ >= end_ || *p_ != '"') return false;
    p_++;
    out->clear();
    while (p_ < end_) {
      char c = *p_++;
      if (c == '"') return true;
      if (c == '\\') {
        if (p_ >= end_) return false;
        char e = *p_++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (end_ - p_ < 4) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; i++) {
              char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= (h - '0');
              else if (h >= 'a' && h <= 'f') code |= (h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= (h - 'A' + 10);
              else return false;
            }
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
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // Unterminated
  }

  bool ParseNumber(json::Value* out) {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) p_++;
    bool digits = false;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      p_++;
    }
    if (!digits) return false;
    std::string num(start, p_ - start);
    char* endp = nullptr;
    double d = std::strtod(num.c_str(), &endp);
    if (endp != num.c_str() + num.size()) return false;
    *out = json::Value(d);
    return true;
  }

  bool ParseArray(json::Value* out) {
    p_++;  // '['
    json::Array arr;
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      *out = json::Value(std::move(arr));
      return true;
    }
    while (true) {
      json::Value v;
      if (!ParseValue(&v)) return false;
      arr.push_back(std::move(v));
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ == ']') {
        p_++;
        *out = json::Value(std::move(arr));
        return true;
      }
      return false;
    }
  }

  bool ParseObject(json::Value* out) {
    p_++;  // '{'
    json::Object obj;
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      *out = json::Value(std::move(obj));
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (p_ >= end_ || *p_ != ':') return false;
      p_++;
      json::Value v;
      if (!ParseValue(&v)) return false;
      obj[std::move(key)] = std::move(v);
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ == '}') {
        p_++;
        *out = json::Value(std::move(obj));
        return true;
      }
      return false;
    }
  }

  const char* p_;
  const char* end_;
};

bool Parse(const std::string& text, json::Value* out) {
  Parser parser(text.data(), text.data() + text.size());
  json::Value v;
  if (!parser.ParseValue(&v) || !parser.AtEnd()) {
    *out = json::Value();
    return false;
  }
  *out = std::move(v);
  return true;
}

// The DOM extractor's answer for `attr` from an already parsed document.
bool Extract(bool parsed, const json::Value& doc, const std::string& attr,
             std::string* out) {
  if (!parsed || !doc.is_object()) return false;
  const json::Value& v = doc[attr];
  switch (v.type()) {
    case json::Value::Type::kString:
      *out = v.as_string();
      return true;
    case json::Value::Type::kBool:
      *out = v.as_bool() ? "true" : "false";
      return true;
    case json::Value::Type::kNumber: {
      const double d = v.as_number();
      char buf[32];
      if (d == std::floor(d) && std::abs(d) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
      }
      *out = buf;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace oracle

// ---------------------------------------------------------------------------

// Attributes asked for on every document: the tweet fields, the generator's
// other keys, one no document carries, the empty key, and UserID twice (both
// slots must be filled).
const std::vector<std::string> kAttrs = {
    "UserID", "CreationTime", "Body", "TweetID", "n",
    "b",      "x",            "",     "missing", "UserID"};

// Checks every extraction path against the oracle on one document. Returns
// whether the document parsed.
bool CheckDocument(const std::string& doc) {
  SCOPED_TRACE("document: " + doc);
  json::Value want;
  const bool parsed = oracle::Parse(doc, &want);

  json::Value got;
  EXPECT_EQ(parsed, json::Parse(Slice(doc), &got));
  if (parsed) {
    EXPECT_EQ(want.ToString(), got.ToString());
  }

  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::vector<std::string> values(kAttrs.size(), "stale");
  std::vector<char> found(kAttrs.size(), 1);
  x->ExtractAll(Slice(doc), kAttrs, values, found);
  for (size_t i = 0; i < kAttrs.size(); i++) {
    SCOPED_TRACE("attribute '" + kAttrs[i] + "'");
    std::string expected;
    const bool has = oracle::Extract(parsed, want, kAttrs[i], &expected);
    EXPECT_EQ(has, found[i] != 0);
    if (has && found[i]) {
      EXPECT_EQ(expected, values[i]);
    }
    std::string single;
    EXPECT_EQ(has, x->Extract(Slice(doc), kAttrs[i], &single));
    if (has) {
      EXPECT_EQ(expected, single);
    }
  }
  return parsed;
}

// --- Pinned cases ----------------------------------------------------------

TEST(DocumentScanTest, PinnedCasesMatchOracle) {
  const char* kDocs[] = {
      // Duplicate keys: the last occurrence wins, whatever its type.
      R"({"UserID":"u1","UserID":"u2"})",
      R"({"UserID":"u1","Body":"b","UserID":null})",
      R"({"UserID":null,"UserID":7})",
      R"({"UserID":[1],"UserID":"back"})",
      // Keys compare after unescaping.
      R"({"User\u0049D":"escaped-key"})",
      R"({"UserID":"plain","User\u0049D":"escaped-last"})",
      R"({"User\u0049D":"escaped-first","UserID":"plain-last"})",
      R"({"Cre\u0061tionTime":"000000000042","a\"b":1})",
      // Escaped and control bytes in values.
      R"({"UserID":"a\"b\\c\/d\b\f\n\r\t"})",
      R"({"UserID":"\u0041\u00e9\u20ac\uD83D\u0000z"})",
      "{\"UserID\":\"raw\x01\x1f\xc3\xa9 bytes\"}",
      R"({"UserID":""})",
      R"({"UserID":"\u00"})",
      R"({"UserID":"\q"})",
      R"({"UserID":"unterminated})",
      // Numbers re-emitted through the DOM's formatting.
      R"({"n":+7})",
      R"({"n":1e3})",
      R"({"n":-0.5})",
      R"({"n":12345678901234567890})",
      R"({"n":-0})",
      R"({"n":0.1})",
      R"({"n":9007199254740993})",
      R"({"n":1e999})",
      R"({"n":.5})",
      R"({"n":5.})",
      R"({"n":007})",
      // Not numbers.
      R"({"n":--1})",
      R"({"n":1e})",
      R"({"n":+})",
      R"({"n":1-2})",
      R"({"n":0x10})",
      R"({"n":-})",
      // Literals.
      R"({"b":true,"x":false})",
      R"({"b":tru})",
      R"({"b":nul})",
      R"({"b":True})",
      // Whitespace and trailing bytes.
      " \t\r\n{ \"UserID\" :\n\"ws\" , \"b\"\t:\rtrue }\n ",
      R"({"UserID":"u1"} garbage)",
      R"({"UserID":"u1"}})",
      R"({"UserID":"u1",})",
      R"({,"UserID":"u1"})",
      R"({"UserID" "u1"})",
      R"({"UserID":"u1" "b":true})",
      R"({'UserID':'u1'})",
      "{\"UserID\":\"u1\"}\x00",
      // Non-object top level.
      R"(["UserID","u1"])",
      R"("UserID")",
      "42",
      "null",
      "",
      "   ",
      // Values that are not indexable, and nesting around indexable ones.
      R"({"UserID":null,"Body":[1,2],"TweetID":{"UserID":"inner"}})",
      R"({"x":{"a":[{"b":{}}],"c":[]},"UserID":"after-nesting"})",
      R"({"x":[[[[["deep"]]]]],"UserID":"u"})",
      R"({"x":{"k":"\u0041","User\u0049D":1},"UserID":"top"})",
      R"({"x":[1,2,],"UserID":"u"})",
      R"({"x":{"a" 1},"UserID":"u"})",
      R"({})",
      R"({"":"empty-key"})",
  };
  for (const char* doc : kDocs) CheckDocument(doc);
  // A NUL inside the document must not end it early.
  CheckDocument(std::string("{\"UserID\":\"a\0b\"}", 16));
  CheckDocument(std::string("{\"UserID\":\"ab\"}\0", 16));
}

TEST(DocumentScanTest, PinnedValues) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(x->Extract(R"({"UserID":"u1","UserID":"u2"})", "UserID", &out));
  EXPECT_EQ("u2", out);
  ASSERT_TRUE(x->Extract(R"({"User\u0049D":"e"})", "UserID", &out));
  EXPECT_EQ("e", out);
  ASSERT_TRUE(x->Extract(R"({"n":+7})", "n", &out));
  EXPECT_EQ("7", out);
  ASSERT_TRUE(x->Extract(R"({"n":1e3})", "n", &out));
  EXPECT_EQ("1000", out);
  ASSERT_TRUE(x->Extract(R"({"n":-0.5})", "n", &out));
  EXPECT_EQ("-0.5", out);
  ASSERT_TRUE(x->Extract(R"({"n":12345678901234567890})", "n", &out));
  EXPECT_EQ("1.2345678901234567e+19", out);
  EXPECT_FALSE(x->Extract(R"({"n":--1})", "n", &out));
  EXPECT_FALSE(x->Extract(R"({"n":1e})", "n", &out));
  ASSERT_TRUE(x->Extract(R"({"b":false})", "b", &out));
  EXPECT_EQ("false", out);
  // A defect after the wanted field still rejects the whole document.
  EXPECT_FALSE(x->Extract(R"({"UserID":"u1","Body":"x)", "UserID", &out));
  EXPECT_FALSE(x->Extract(R"({"UserID":"u1"} x)", "UserID", &out));
}

// --- Nesting bound ---------------------------------------------------------

std::string Nested(int depth, const std::string& inner) {
  return std::string(depth, '[') + inner + std::string(depth, ']');
}

TEST(DocumentScanTest, NestingDepthBound) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  json::Value v;
  // The top-level object is the first level: a Body of depth - 1 arrays
  // makes a document exactly `depth` deep.
  const int max = json::kMaxNestingDepth;
  const std::string at_bound =
      "{\"UserID\":\"u1\",\"Body\":" + Nested(max - 1, "1") + "}";
  const std::string over_bound =
      "{\"UserID\":\"u1\",\"Body\":" + Nested(max, "1") + "}";
  EXPECT_TRUE(json::Parse(Slice(at_bound), &v));
  EXPECT_TRUE(x->Extract(Slice(at_bound), "UserID", &out));
  EXPECT_EQ("u1", out);
  CheckDocument(at_bound);  // Within the bound the oracle agrees
  EXPECT_FALSE(json::Parse(Slice(over_bound), &v));
  EXPECT_FALSE(x->Extract(Slice(over_bound), "UserID", &out));

  // Objects count like arrays.
  std::string objects = "1";
  for (int i = 0; i < max; i++) objects = "{\"k\":" + objects + "}";
  EXPECT_TRUE(json::Parse(Slice(objects), &v));
  objects = "{\"k\":" + objects + "}";
  EXPECT_FALSE(json::Parse(Slice(objects), &v));
}

TEST(DocumentScanTest, HostileNestingIsRejectedNotFatal) {
  // 100 000 levels would overflow the stack of an unbounded recursive
  // descent; both forms reject it after kMaxNestingDepth levels.
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  json::Value v;
  for (const std::string& body :
       {Nested(100000, ""), std::string(100000, '['),
        std::string(50000, '{') /* keyless, malformed anyway */}) {
    const std::string doc = "{\"UserID\":\"u1\",\"Body\":" + body + "}";
    EXPECT_FALSE(x->Extract(Slice(doc), "UserID", &out));
    EXPECT_FALSE(json::Parse(Slice(doc), &v));
  }
  std::string deep_objects;
  for (int i = 0; i < 100000; i++) deep_objects += "{\"k\":";
  EXPECT_FALSE(json::Parse(Slice(deep_objects), &v));
  EXPECT_FALSE(x->Extract(Slice(deep_objects), "k", &out));
}

// A record whose Body nests 100 000 arrays (about 200 KB) is stored and
// readable but carries no attribute, like any malformed document: on every
// variant, through memtable insert, flush and compaction, scans,
// validation, the LookupAnd residual filter and Delete.
TEST(DocumentScanTest, DeeplyNestedPutIsStoredUnindexed) {
  const std::string deep = "{\"UserID\":\"u1\",\"CreationTime\":\"2\",\"Body\":" +
                           Nested(100000, "") + "}";
  const std::string plain = R"({"UserID":"u1","CreationTime":"1"})";
  for (IndexType type : {IndexType::kNoIndex, IndexType::kEmbedded,
                         IndexType::kLazy, IndexType::kEager,
                         IndexType::kComposite}) {
    SCOPED_TRACE(IndexTypeName(type));
    std::unique_ptr<Env> env(NewMemEnv());
    SecondaryDBOptions options;
    options.base.env = env.get();
    options.index_type = type;
    options.indexed_attributes = {"UserID", "CreationTime"};
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, "/deep", &db).ok());
    ASSERT_TRUE(db->Put("plain", plain).ok());
    ASSERT_TRUE(db->Put("deep", deep).ok());
    for (int pass = 0; pass < 2; pass++) {  // Memtable, then tables
      SCOPED_TRACE(pass == 0 ? "memtable" : "compacted");
      std::string value;
      ASSERT_TRUE(db->Get("deep", &value).ok());
      EXPECT_EQ(deep, value);
      std::vector<QueryResult> results;
      ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
      ASSERT_EQ(1u, results.size());
      EXPECT_EQ("plain", results[0].primary_key);
      ASSERT_TRUE(db->RangeLookup("CreationTime", "0", "9", 0, &results).ok());
      ASSERT_EQ(1u, results.size());
      EXPECT_EQ("plain", results[0].primary_key);
      ASSERT_TRUE(
          db->LookupAnd("UserID", "u1", "CreationTime", {"1", "2"}, 0,
                        &results)
              .ok());
      ASSERT_EQ(1u, results.size());
      EXPECT_EQ("plain", results[0].primary_key);
      ASSERT_TRUE(db->CompactAll().ok());
    }
    ASSERT_TRUE(db->Delete("deep").ok());
    std::string value;
    EXPECT_TRUE(db->Get("deep", &value).IsNotFound());
    EXPECT_TRUE(db->Get("plain", &value).ok());
  }
}

// --- Seeded mutation fuzz --------------------------------------------------

std::string RandomStringToken(Random64* rnd) {
  static const char* kPieces[] = {
      "a",      "Z",      "7",      " ",      "u0",     "\\\"",   "\\\\",
      "\\/",    "\\b",    "\\f",    "\\n",    "\\r",    "\\t",    "\\u0041",
      "\\u00e9", "\\u20AC", "\\uD83D", "\\u0000", "\x01",  "\x1f",  "\xc3\xa9",
      "{",      "]",      ":",      ",",
  };
  std::string s = "\"";
  const int n = static_cast<int>(rnd->Uniform(8));
  for (int i = 0; i < n; i++) {
    s += kPieces[rnd->Uniform(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return s + "\"";
}

std::string RandomNumberToken(Random64* rnd) {
  static const char* kNumbers[] = {
      "0",    "-0",   "7",     "+7",   "-0.5", "1e3",  "1E-2", "3.25",
      "12345678901234567890",  "9007199254740993", "1e999",
      "-1e-400", ".5", "5.",   "007",  "-12",  "2.5e+4",
  };
  if (rnd->Uniform(3) == 0) {
    return std::to_string(static_cast<int64_t>(rnd->Next() >> 20) -
                          (int64_t{1} << 43));
  }
  return kNumbers[rnd->Uniform(sizeof(kNumbers) / sizeof(kNumbers[0]))];
}

std::string Ws(Random64* rnd) {
  static const char* kWs[] = {"", "", "", " ", "\n", "\t ", "\r\n"};
  return kWs[rnd->Uniform(sizeof(kWs) / sizeof(kWs[0]))];
}

std::string RandomValue(Random64* rnd, int depth);

std::string RandomKey(Random64* rnd) {
  static const char* kKeys[] = {
      "\"UserID\"",      "\"CreationTime\"", "\"Body\"", "\"TweetID\"",
      "\"n\"",           "\"b\"",            "\"x\"",    "\"\"",
      "\"User\\u0049D\"", "\"Cre\\u0061tionTime\"",      "\"a\\\"b\"",
  };
  return kKeys[rnd->Uniform(sizeof(kKeys) / sizeof(kKeys[0]))];
}

std::string RandomObject(Random64* rnd, int depth) {
  std::string s = "{" + Ws(rnd);
  const int members = static_cast<int>(rnd->Uniform(depth == 0 ? 7 : 3));
  for (int i = 0; i < members; i++) {
    if (i > 0) s += "," + Ws(rnd);
    s += RandomKey(rnd) + Ws(rnd) + ":" + Ws(rnd) +
         RandomValue(rnd, depth + 1) + Ws(rnd);
  }
  return s + "}";
}

std::string RandomValue(Random64* rnd, int depth) {
  switch (rnd->Uniform(depth >= 3 ? 5 : 7)) {
    case 0:
    case 1:
      return RandomStringToken(rnd);
    case 2:
      return RandomNumberToken(rnd);
    case 3:
      return rnd->Uniform(2) ? "true" : "false";
    case 4:
      return "null";
    case 5: {
      std::string s = "[" + Ws(rnd);
      const int n = static_cast<int>(rnd->Uniform(4));
      for (int i = 0; i < n; i++) {
        if (i > 0) s += "," + Ws(rnd);
        s += RandomValue(rnd, depth + 1) + Ws(rnd);
      }
      return s + "]";
    }
    default:
      return RandomObject(rnd, depth);
  }
}

// A base document for one seed: a generated tweet half the time, else a
// random object over the tweet keys and their escaped spellings.
std::string BaseDocument(Random64* rnd) {
  if (rnd->Uniform(2) == 0) {
    TweetGeneratorOptions options;
    options.seed = rnd->Next();
    options.num_users = 1000;
    options.min_body_len = 10;
    options.max_body_len = 80;
    TweetGenerator gen(options);
    return gen.Next().ToJson();
  }
  return Ws(rnd) + RandomObject(rnd, 0) + Ws(rnd);
}

// One to three seeded structure-unaware edits of `base`; `other` feeds
// splices.
std::string Mutate(const std::string& base, const std::string& other,
                   Random64* rnd) {
  std::string s = base;
  static const char kInteresting[] = "{}[]\",:\\ u0123456789-+.eEtfnrl";
  const int ops = 1 + static_cast<int>(rnd->Uniform(3));
  for (int op = 0; op < ops; op++) {
    const size_t pos = s.empty() ? 0 : rnd->Uniform(s.size() + 1);
    switch (rnd->Uniform(5)) {
      case 0:  // Bit flip
        if (!s.empty()) {
          s[std::min(pos, s.size() - 1)] ^=
              static_cast<char>(1u << rnd->Uniform(8));
        }
        break;
      case 1:  // Truncate
        s.resize(pos);
        break;
      case 2:  // Byte insert: structural bytes half the time
        s.insert(pos, 1,
                 rnd->Uniform(2) ? kInteresting[rnd->Uniform(
                                       sizeof(kInteresting) - 1)]
                                 : static_cast<char>(rnd->Uniform(256)));
        break;
      case 3:  // Byte delete
        if (pos < s.size()) s.erase(pos, 1);
        break;
      default: {  // Splice a slice of another document in
        if (other.empty()) break;
        const size_t from = rnd->Uniform(other.size());
        const size_t len = 1 + rnd->Uniform(other.size() - from);
        const size_t cut =
            rnd->Uniform(s.size() - std::min(pos, s.size()) + 1);
        s.replace(std::min(pos, s.size()), cut, other.substr(from, len));
      }
    }
  }
  return s;
}

// Seeds that once broke an invariant; run first. None has failed yet.
const std::vector<uint64_t> kPinnedSeeds = {};

// Checks the base document and one mutation of it; returns whether the
// mutation parsed.
bool CheckMutationSeed(uint64_t seed) {
  Random64 rnd(seed);
  const std::string base = BaseDocument(&rnd);
  const std::string other = BaseDocument(&rnd);
  EXPECT_TRUE(CheckDocument(base)) << "generated documents are well formed";
  return CheckDocument(Mutate(base, other, &rnd));
}

TEST(DocumentScanTest, MutationFuzzMatchesDomOracle) {
  for (uint64_t seed : kPinnedSeeds) {
    SCOPED_TRACE("pinned seed " + std::to_string(seed));
    CheckMutationSeed(seed);
  }
  int accepted = 0;
  const int kSeeds = 12000;
  for (uint64_t seed = 1; seed <= kSeeds; seed++) {
    SCOPED_TRACE("mutation seed " + std::to_string(seed) +
                 " (pin failing seeds in kPinnedSeeds)");
    accepted += CheckMutationSeed(seed);
    if (HasFailure()) {
      std::printf("failing mutation seed: %llu\n",
                  static_cast<unsigned long long>(seed));
      return;  // Report the first failing seed only
    }
  }
  // Both outcomes must be well exercised for the comparison to mean much.
  EXPECT_GT(accepted, kSeeds / 10);
  EXPECT_LT(accepted, kSeeds * 9 / 10);
  std::printf("mutation fuzz: %d of %d mutated documents accepted\n",
              accepted, kSeeds);
}

}  // namespace
}  // namespace leveldbpp
