#include "core/document.h"

#include <algorithm>

#include "util/perf_context.h"

namespace leveldbpp {

namespace {

// The indexable value of one member's raw token (already validated by the
// scan): string contents unescaped, numbers re-serialized, booleans as their
// literal. Returns false for null, array and object values.
bool DecodeToken(const Slice& token, std::string* out) {
  const char* p = token.data();
  const char* const limit = p + token.size();
  switch (*p) {
    case '"': {
      Slice v;
      json::ReadString(&p, limit, &v, out);
      // An escaped string was decoded into *out; a plain one is a view.
      if (v.data() != out->data()) out->assign(v.data(), v.size());
      return true;
    }
    case 't':
      out->assign("true");
      return true;
    case 'f':
      out->assign("false");
      return true;
    case 'n':
    case '[':
    case '{':
      return false;
    default: {
      double d = 0;
      json::ReadNumber(&p, limit, &d);
      out->clear();
      json::AppendNumber(out, d);
      return true;
    }
  }
}

}  // namespace

void JsonAttributeExtractor::ExtractAll(const Slice& record_value,
                                        std::span<const std::string> attrs,
                                        std::span<std::string> values,
                                        std::span<char> found) const {
  PerfCounterAdd(&PerfContext::documents_scanned, 1);
  std::fill(found.begin(), found.end(), 0);
  // Members arrive in document order, so a repeated key's last occurrence
  // overwrites the earlier ones.
  const bool ok = json::ScanObjectFields(
      record_value, attrs, [&](size_t i, const Slice& token) {
        found[i] = DecodeToken(token, &values[i]) ? 1 : 0;
      });
  if (!ok) std::fill(found.begin(), found.end(), 0);
}

const JsonAttributeExtractor* JsonAttributeExtractor::Instance() {
  static JsonAttributeExtractor singleton;
  return &singleton;
}

}  // namespace leveldbpp
