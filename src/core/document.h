// JSON document helpers: the default AttributeExtractor over JSON record
// values (tweets are stored as JSON objects, per the paper's data model
// v = {A1: val(A1), ..., Al: val(Al)}).

#ifndef LEVELDBPP_CORE_DOCUMENT_H_
#define LEVELDBPP_CORE_DOCUMENT_H_

#include <string>

#include "json/json.h"
#include "table/attribute_extractor.h"

namespace leveldbpp {

/// Extracts top-level attributes from JSON-object record values with one
/// json::ScanObjectFields pass per record, building no DOM. The answer is
/// the one a full json::Parse would give: a malformed document carries no
/// attribute, a repeated key's last occurrence wins, keys match after
/// unescaping; string values extract as their unescaped bytes, numbers as
/// their compact serialization (json::AppendNumber), booleans as `true` /
/// `false`; null, array and object values are not indexable. Attribute
/// encodings must be order-preserving under bytewise comparison for zone
/// maps / range queries to prune correctly (e.g. use fixed-width decimal
/// timestamps).
class JsonAttributeExtractor : public AttributeExtractor {
 public:
  void ExtractAll(const Slice& record_value,
                  std::span<const std::string> attrs,
                  std::span<std::string> values,
                  std::span<char> found) const override;

  /// Process-wide instance.
  static const JsonAttributeExtractor* Instance();
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_DOCUMENT_H_
