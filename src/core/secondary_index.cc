#include "core/secondary_index.h"

#include "core/document.h"
#include "util/perf_context.h"

namespace leveldbpp {

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kNoIndex: return "NoIndex";
    case IndexType::kEmbedded: return "Embedded";
    case IndexType::kLazy: return "Lazy";
    case IndexType::kEager: return "Eager";
    case IndexType::kComposite: return "Composite";
  }
  return "Unknown";
}

Status SecondaryIndex::OnPutBatch(const std::vector<IndexOp>& ops) {
  for (const IndexOp& op : ops) {
    Status s = op.is_delete
                   ? OnDelete(Slice(op.primary_key), Slice(op.attr_value),
                              op.seq)
                   : OnPut(Slice(op.primary_key), Slice(op.attr_value),
                           op.seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SecondaryIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  for (const IndexOp& op : entries) {
    Status s = OnPut(Slice(op.primary_key), Slice(op.attr_value), op.seq);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

bool SecondaryIndex::ScanMatches(const Slice& record, const Slice& lo,
                                 const Slice& hi, const RecordFilter* filter,
                                 std::string* scratch) const {
  if (filter != nullptr) return (*filter)(record);
  if (!JsonAttributeExtractor::Instance()->Extract(record, attribute_,
                                                   scratch)) {
    return false;
  }
  const Slice av(*scratch);
  return av.compare(lo) >= 0 && av.compare(hi) <= 0;
}

bool SecondaryIndex::FetchAndValidate(const Slice& primary_key,
                                      const Slice& lo, const Slice& hi,
                                      SequenceNumber stored_seq,
                                      QueryResult* out) {
  ScopedPerfTimer timer(&PerfContext::validate_micros);
  PerfCounterAdd(&PerfContext::candidates_validated, 1);
  if (maintenance_ == IndexMaintenance::kTimestampValidated &&
      lo.compare(hi) == 0) {
    // Point-probe fast path: the stored seq is trustworthy (enforced at
    // Open), so a metadata-only recency check replaces the fetch for stale
    // entries, and an accepted entry skips the extract+compare — the
    // newest version AT stored_seq is the very record that produced this
    // posting, so its attribute equals the probed value by construction.
    Statistics* stats = primary_->options().statistics;
    if (stats != nullptr) stats->Record(kTimestampValidations);
    if (!primary_->IsNewestVersion(primary_key, stored_seq)) {
      if (stats != nullptr) stats->Record(kTimestampRejects);
      return false;
    }
    std::string value;
    DBImpl::RecordLocation loc;
    Status s =
        primary_->GetWithMeta(ReadOptions(), primary_key, &value, &loc);
    if (!s.ok()) return false;  // Raced with a delete
    PerfCounterAdd(&PerfContext::candidates_valid, 1);
    out->primary_key = primary_key.ToString();
    out->seq = loc.seq;
    out->value = std::move(value);
    return true;
  }
  std::string value;
  DBImpl::RecordLocation loc;
  Status s = primary_->GetWithMeta(ReadOptions(), primary_key, &value, &loc);
  if (!s.ok()) return false;  // Deleted or missing: stale index entry
  std::string attr_value;
  if (!JsonAttributeExtractor::Instance()->Extract(Slice(value), attribute_,
                                                   &attr_value)) {
    return false;
  }
  Slice av(attr_value);
  if (av.compare(lo) < 0 || av.compare(hi) > 0) {
    return false;  // Updated record no longer carries the queried value
  }
  PerfCounterAdd(&PerfContext::candidates_valid, 1);
  out->primary_key = primary_key.ToString();
  out->seq = loc.seq;
  out->value = std::move(value);
  return true;
}

void SecondaryIndex::FetchAndValidateBatch(
    const std::vector<std::string>& keys,
    const std::vector<SequenceNumber>& stored_seqs, const Slice& lo,
    const Slice& hi, std::vector<QueryResult>* out,
    std::vector<char>* valid) {
  const size_t n = keys.size();
  if (maintenance_ == IndexMaintenance::kTimestampValidated &&
      lo.compare(hi) == 0) {
    // The fast path is a per-key recency probe; run it sequentially.
    out->assign(n, QueryResult());
    valid->assign(n, 0);
    for (size_t i = 0; i < n; i++) {
      if (FetchAndValidate(Slice(keys[i]), lo, hi, stored_seqs[i],
                           &(*out)[i])) {
        (*valid)[i] = 1;
      }
    }
    return;
  }
  out->assign(n, QueryResult());
  valid->assign(n, 0);
  if (n == 0) return;
  ScopedPerfTimer timer(&PerfContext::validate_micros);
  PerfCounterAdd(&PerfContext::candidates_validated, n);
  std::vector<Slice> key_slices(keys.begin(), keys.end());
  std::vector<std::string> values;
  std::vector<DBImpl::RecordLocation> locs;
  std::vector<Status> statuses;
  primary_->MultiGetWithMeta(ReadOptions(), key_slices, &values, &locs,
                             &statuses);
  for (size_t i = 0; i < n; i++) {
    if (!statuses[i].ok()) continue;  // Deleted or missing: stale entry
    std::string attr_value;
    if (!JsonAttributeExtractor::Instance()->Extract(Slice(values[i]),
                                                     attribute_,
                                                     &attr_value)) {
      continue;
    }
    Slice av(attr_value);
    if (av.compare(lo) < 0 || av.compare(hi) > 0) continue;
    (*out)[i].primary_key = keys[i];
    (*out)[i].seq = locs[i].seq;
    (*out)[i].value = std::move(values[i]);
    (*valid)[i] = 1;
    PerfCounterAdd(&PerfContext::candidates_valid, 1);
  }
}

}  // namespace leveldbpp
