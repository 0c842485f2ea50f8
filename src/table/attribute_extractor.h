// AttributeExtractor: pulls secondary-attribute values out of stored record
// values so the table builder can construct the Embedded Index meta blocks
// (per-block secondary bloom filters and zone maps) without knowing the
// record encoding. The default extractor (src/core) parses JSON documents of
// the form {"UserID": "u1", "CreationTime": "...", ...}.

#ifndef LEVELDBPP_TABLE_ATTRIBUTE_EXTRACTOR_H_
#define LEVELDBPP_TABLE_ATTRIBUTE_EXTRACTOR_H_

#include <span>
#include <string>

#include "util/slice.h"

namespace leveldbpp {

class AttributeExtractor {
 public:
  virtual ~AttributeExtractor() = default;

  /// Extract every attribute of `attrs` from one stored record value in a
  /// single pass. For each i, found[i] is set to whether the record carries
  /// attrs[i] (a record that does not is invisible to that attribute's
  /// index) and, if it does, values[i] receives the value; where found[i]
  /// is false values[i] is unspecified. `values` and `found` must have
  /// attrs.size() elements; callers that reuse them across records extract
  /// without allocating.
  virtual void ExtractAll(const Slice& record_value,
                          std::span<const std::string> attrs,
                          std::span<std::string> values,
                          std::span<char> found) const = 0;

  /// ExtractAll for one attribute: returns whether the record carries
  /// `attr`, and if so stores its value in *out.
  bool Extract(const Slice& record_value, const std::string& attr,
               std::string* out) const {
    char found = 0;
    ExtractAll(record_value, std::span<const std::string>(&attr, 1),
               std::span<std::string>(out, 1), std::span<char>(&found, 1));
    return found != 0;
  }
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_TABLE_ATTRIBUTE_EXTRACTOR_H_
