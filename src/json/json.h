// Minimal JSON parser/serializer.
//
// Used for (a) record values — tweets are stored as JSON documents, with the
// default AttributeExtractor pulling indexed attributes out of the top-level
// object — and (b) Stand-Alone Lazy/Eager posting lists, which the paper
// serializes as "a single JSON array" (its Lazy-index CPU overhead comes
// precisely from parsing and merging these JSON lists during compaction).

#ifndef LEVELDBPP_JSON_JSON_H_
#define LEVELDBPP_JSON_JSON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/slice.h"

namespace leveldbpp {
namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), num_(d) {}
  explicit Value(int64_t i)
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  int64_t as_int() const { return static_cast<int64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return *arr_; }
  Array& as_array() { return *arr_; }
  const Object& as_object() const { return *obj_; }
  Object& as_object() { return *obj_; }

  /// Object member access; returns a null Value for missing keys or
  /// non-objects.
  const Value& operator[](const std::string& key) const;

  /// Serialize to compact JSON text (no whitespace).
  void Serialize(std::string* out) const;
  std::string ToString() const {
    std::string s;
    Serialize(&s);
    return s;
  }

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Deepest nesting of arrays and objects a document may have (the top-level
/// container counts as one). Parse and ScanObjectFields reject anything
/// deeper as malformed, so no input can exhaust the parsing thread's stack.
constexpr int kMaxNestingDepth = 1024;

/// Parse JSON text. Returns false on malformed input (leaving *out null).
bool Parse(const Slice& text, Value* out);

/// Receives (i, token) for a member ScanObjectFields matched to keys[i].
using FieldCallback = std::function<void(size_t, const Slice&)>;

/// One validating pass over `text` that builds no DOM. For each top-level
/// member whose key, unescaped, equals keys[i], on_field(i, token) runs
/// with the member's raw value token (e.g. `"u\u0031"`, `12`, `[1]`),
/// already validated, in document order: for a repeated key the last call
/// carries the winner. Returns false unless Parse would accept `text` and
/// find an object; calls made before a later defect was found are not
/// undone, so on false the caller must discard what they delivered.
bool ScanObjectFields(const Slice& text, std::span<const std::string> keys,
                      const FieldCallback& on_field);

// Token rules. Parse, ScanObjectFields and every other reader of stored JSON
// (document attributes, posting lists) share these, so all of them accept
// and decode the same bytes the same way.

/// Read the string token at *p (its opening quote) and advance *p past its
/// closing quote. Returns false if the token is malformed or runs past
/// `limit`. With `scratch` non-null, *value receives the unescaped contents:
/// a view into the input when the token holds no escape, else a view of
/// *scratch, which is overwritten with them. With `scratch` null the token
/// is only validated. `\u` escapes decode to UTF-8, BMP only (a surrogate
/// encodes as three bytes).
bool ReadString(const char** p, const char* limit, Slice* value,
                std::string* scratch);

/// Read the number token at *p and advance *p past it. The token is an
/// optional sign followed by a run of digits, '.', 'e', 'E', '+' and '-'; it
/// holds a number iff strtod consumes all of it. With `value` null the token
/// is only validated.
bool ReadNumber(const char** p, const char* limit, double* value);

/// Append a number as Value::Serialize writes it: integral values below
/// 9e15 in magnitude with "%lld", anything else with "%.17g".
void AppendNumber(std::string* out, double d);

/// Escape + quote a string per JSON rules, appended to *out.
void AppendQuoted(std::string* out, const Slice& s);

}  // namespace json
}  // namespace leveldbpp

#endif  // LEVELDBPP_JSON_JSON_H_
