// SecondaryIndex: the per-attribute index strategy interface. One instance
// indexes ONE secondary attribute of the primary table (mirroring the
// paper's setup: a UserID index and a CreationTime index), with five
// implementations:
//
//   EmbeddedIndex   — no separate structure (bloom filters + zone maps live
//                     inside the primary SSTables)                Section 3
//   LazyIndex       — stand-alone LSM table of posting lists,
//                     append-only fragments merged at compaction  Section 4.1.2
//   EagerIndex      — stand-alone table, read-modify-write lists  Section 4.1.1
//   CompositeIndex  — stand-alone table of secondary+primary keys Section 4.2
//   NoIndex         — full-scan baseline
//
// Maintenance hooks are invoked by SecondaryDB around primary-table writes;
// query methods implement LOOKUP(A, a, K) and RANGELOOKUP(A, a, b, K) from
// Table 1 (K most recent by insertion sequence; K == 0 means unlimited).

#ifndef LEVELDBPP_CORE_SECONDARY_INDEX_H_
#define LEVELDBPP_CORE_SECONDARY_INDEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/topk.h"
#include "db/db_impl.h"
#include "util/status.h"

namespace leveldbpp {

enum class IndexType {
  kNoIndex,
  kEmbedded,
  kLazy,
  kEager,
  kComposite,
};

const char* IndexTypeName(IndexType type);

/// When the stand-alone indexes learn about primary-table writes (the
/// maintenance axis of Luo & Carey's LSM survey; the paper itself fixes
/// kSync). Embedded/NoIndex have no separate structure and ignore this.
enum class IndexMaintenance {
  /// Index entries are written inside every Put/Delete (paper behavior).
  kSync,
  /// Index ops are buffered and applied in FIFO batches — on primary-table
  /// flush, on every query, or when the buffer hits its cap. Batching lets
  /// Eager collapse its per-put read-modify-write to one RMW per distinct
  /// attribute value. Queries drain first, so results are byte-identical
  /// to kSync.
  kDeferredBatch,
  /// Writes stay synchronous, but point-LOOKUP validation trusts the
  /// posting's stored sequence number: one metadata-only IsNewestVersion
  /// probe replaces the full fetch+extract+compare for stale entries.
  /// Sound because the buffered write path stores the primary's real
  /// sequence numbers (rejected at Open when combined with sync_writes,
  /// whose index-first ordering can store seqs the primary never
  /// committed). Results stay byte-identical to kSync.
  kTimestampValidated,
};

/// One buffered index-maintenance operation (kDeferredBatch) or one bulk
/// record (BulkLoad).
struct IndexOp {
  std::string primary_key;
  std::string attr_value;
  SequenceNumber seq = 0;
  bool is_delete = false;
};

/// One live posting enumerated from a stand-alone index: deduplicated per
/// primary key (the newest stored occurrence wins), deletion markers
/// resolved, but NOT yet validated against the primary table. `seq` is the
/// STORED sequence number, which is always >= the sequence the record
/// validates at (a crash-stale posting stores a seq the primary never
/// committed) — the property conjunctive/top-K early termination relies on.
struct PostingCandidate {
  std::string primary_key;
  SequenceNumber seq = 0;
};

/// Exact predicate over a full record value for the scan variants'
/// conjunctive path. It is the whole predicate, the driven attribute's
/// equality included: the scan applies it in place of its own attribute
/// check (ScanMatches), so each record is scanned once. Must be a pure
/// function of the record bytes (it runs on pool workers under
/// read_parallelism).
using RecordFilter = std::function<bool(const Slice& record)>;

class SecondaryIndex {
 public:
  SecondaryIndex(std::string attribute, DBImpl* primary)
      : attribute_(std::move(attribute)), primary_(primary) {}
  virtual ~SecondaryIndex() = default;

  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  const std::string& attribute() const { return attribute_; }

  virtual IndexType type() const = 0;

  /// Called AFTER the primary-table write assigned `seq` to (key, value).
  /// `attr_value` is the extracted secondary key (absent records are not
  /// indexed and this is not called).
  virtual Status OnPut(const Slice& primary_key, const Slice& attr_value,
                       SequenceNumber seq) = 0;

  /// Called after a DEL of `primary_key` whose old record carried
  /// `attr_value`; `seq` is the deletion's sequence number.
  virtual Status OnDelete(const Slice& primary_key, const Slice& attr_value,
                          SequenceNumber seq) = 0;

  /// Apply a FIFO batch of buffered maintenance ops (kDeferredBatch). The
  /// default replays them through OnPut/OnDelete in order; Eager overrides
  /// to coalesce the read-modify-writes per attribute value. Must leave the
  /// index byte-identical to the sequential replay.
  virtual Status OnPutBatch(const std::vector<IndexOp>& ops);

  /// Load `entries` (all puts, strictly increasing UNIQUE primary keys,
  /// ascending seqs — the shape IngestWithIndexes produces) into the index.
  /// The default replays OnPut; stand-alone variants override to build
  /// their index table via SSTable ingestion when that is sound.
  virtual Status BulkLoad(const std::vector<IndexOp>& entries);

  /// Switch the validation strategy (set once, before any queries).
  void set_maintenance(IndexMaintenance m) { maintenance_ = m; }
  IndexMaintenance maintenance() const { return maintenance_; }

  /// LOOKUP(A, a, K): the K most recent valid records with val(A) == a,
  /// newest first.
  virtual Status Lookup(const Slice& value, size_t k,
                        std::vector<QueryResult>* results) = 0;

  /// RANGELOOKUP(A, a, b, K): the K most recent valid records with
  /// a <= val(A) <= b, newest first.
  virtual Status RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                             std::vector<QueryResult>* results) = 0;

  // ---- Conjunctive-query / join surface (PR 10) ----

  /// Enumerate every live posting stored under `value` (see
  /// PostingCandidate: deduplicated and deletion-resolved, unvalidated).
  /// This is the enumeration half of Lookup — the half LookupAnd's
  /// posting-list intersection consumes before validating survivors once.
  /// Embedded/NoIndex keep no posting lists and return NotSupported (their
  /// conjunctive path scans with an exact RecordFilter instead).
  virtual Status EnumeratePostings(const Slice& value,
                                   std::vector<PostingCandidate>* out) {
    (void)value;
    (void)out;
    return Status::NotSupported("index keeps no posting lists");
  }

  /// Estimated number of postings stored under `value` — the cardinality
  /// input of the conjunctive planner's drive-side choice. May overcount
  /// (duplicates across fragments, stale entries) but must never undercount
  /// a live posting. NotSupported where EnumeratePostings is.
  virtual Status EstimatePostingCount(const Slice& value, uint64_t* count) {
    (void)value;
    (void)count;
    return Status::NotSupported("index keeps no posting lists");
  }

  /// Enumerate the primary key of every posting the index holds across ALL
  /// attribute values — the outer-side candidate stream of an
  /// index-nested-loop join. A deduplicated SUPERSET of the live records
  /// carrying the attribute (stale and deleted postings may appear; the
  /// join validates by fetching each record once). NotSupported where
  /// EnumeratePostings is.
  virtual Status EnumerateIndexedKeys(std::vector<std::string>* primary_keys) {
    (void)primary_keys;
    return Status::NotSupported("index keeps no posting lists");
  }

  /// Index-table housekeeping for "Static" workloads (flush + full
  /// compaction). Embedded/NoIndex have no separate table: no-op.
  virtual Status CompactAll() { return Status::OK(); }

  /// Clear a transient sticky background error on the index's own table
  /// (see DB::Resume). Embedded/NoIndex have no separate table: no-op.
  virtual Status Resume() { return Status::OK(); }

  /// Sticky background error on the index's own table, if any — a shard is
  /// only healthy when every one of its tables is (index writes keep the
  /// blocking path, so a sick index table fails writes just as loudly as a
  /// sick primary). Embedded/NoIndex have no separate table: always OK.
  virtual Status BackgroundError() { return Status::OK(); }

  /// Statistics of the index's own table (nullptr when none exists).
  virtual Statistics* index_statistics() { return nullptr; }

  /// Bytes consumed by the index's own table (0 when none exists).
  virtual uint64_t IndexSizeBytes() { return 0; }

 protected:
  /// Shared validity check for stand-alone indexes: GET the record from the
  /// primary table and confirm its attribute still matches (stale entries
  /// from updates fail this, per Section 4.1.1). On success fills *out.
  ///
  /// `stored_seq` is the sequence number the index entry carries. Under
  /// kTimestampValidated it enables the fast path for POINT probes
  /// (lo == hi): a metadata-only IsNewestVersion(key, stored_seq) check
  /// rejects stale entries without fetching the record, and an accepted
  /// entry skips the extract+compare (the newest version at `stored_seq`
  /// is by construction the record that produced the posting). Range
  /// probes (lo < hi) always take the full path: the callers' seen/checked
  /// sets are populated BEFORE validation, so rejecting an old posting of
  /// a record whose attribute moved elsewhere within [lo, hi] would drop
  /// the record — with lo == hi a newer same-value posting always precedes
  /// the stale one, making the rejection safe.
  bool FetchAndValidate(const Slice& primary_key, const Slice& lo,
                        const Slice& hi, SequenceNumber stored_seq,
                        QueryResult* out);

  /// Batched FetchAndValidate over one posting-list level's candidates,
  /// resolved through DBImpl::MultiGetWithMeta (parallel when
  /// Options::read_parallelism > 1). (*valid)[i] is nonzero iff keys[i]
  /// validated, in which case (*out)[i] is filled. `stored_seqs` parallels
  /// `keys`; when the timestamp fast path applies (see above) the batch
  /// degrades to the sequential per-key probes.
  void FetchAndValidateBatch(const std::vector<std::string>& keys,
                             const std::vector<SequenceNumber>& stored_seqs,
                             const Slice& lo, const Slice& hi,
                             std::vector<QueryResult>* out,
                             std::vector<char>* valid);

  /// The scan variants' record predicate: (*filter)(record) when a filter
  /// is given (see RecordFilter), else whether the record carries the
  /// attribute with a value in [lo, hi]. `scratch` receives the extracted
  /// value.
  bool ScanMatches(const Slice& record, const Slice& lo, const Slice& hi,
                   const RecordFilter* filter, std::string* scratch) const;

  /// True when the primary table opts queries into batched, fanned-out
  /// candidate resolution.
  bool parallel_reads() const {
    return primary_->options().read_parallelism > 1;
  }

  /// Chunk size for batched candidate validation: enough keys to fill the
  /// heap (and the pool) per round without unbounded overfetch.
  size_t BatchChunk(size_t k) const {
    size_t p = static_cast<size_t>(primary_->options().read_parallelism);
    return k != 0 ? std::max(k, p) : std::max<size_t>(64, p);
  }

  std::string attribute_;
  DBImpl* primary_;
  IndexMaintenance maintenance_ = IndexMaintenance::kSync;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_SECONDARY_INDEX_H_
