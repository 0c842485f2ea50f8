// Posting lists for the Stand-Alone Lazy and Eager indexes.
//
// A posting list maps one secondary-key value to the primary keys carrying
// it, newest first. Following the paper, lists are serialized as "a single
// JSON array"; each entry carries the primary-table sequence number (the
// paper: "we attach a sequence number to each entry in the postings list on
// every write" — this is what makes top-K by recency possible), plus a
// deletion-marker flag used by the Lazy index ("maintains a deletion marker
// which is used during merge in compaction to remove the deleted entry").
//
// Wire format: [["k4",97],["k1",55],["k9",12,1]]  (trailing 1 = deleted)
//
// Every decode goes through PostingListReader, a single-pass cursor over the
// raw bytes; no JSON DOM is built for a posting list.

#ifndef LEVELDBPP_CORE_POSTING_LIST_H_
#define LEVELDBPP_CORE_POSTING_LIST_H_

#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/value_merger.h"
#include "util/slice.h"

namespace leveldbpp {

struct PostingEntry {
  std::string primary_key;
  SequenceNumber seq = 0;
  bool deleted = false;

  PostingEntry() = default;
  PostingEntry(std::string k, SequenceNumber s, bool d = false)
      : primary_key(std::move(k)), seq(s), deleted(d) {}
};

/// One decoded entry. `primary_key` points into the list's own bytes, or
/// into the reader's scratch buffer when the key carried JSON escapes; it
/// stays valid until the reader's next Next() call.
struct PostingView {
  Slice primary_key;
  SequenceNumber seq = 0;
  bool deleted = false;
};

/// Single-pass, allocation-free cursor over a serialized posting list.
///
/// Accepts the format Serialize writes, with JSON whitespace between
/// tokens: an array of [string, seq] or [string, seq, flag] tuples, where
/// seq is a decimal integer no larger than kMaxSequenceNumber and a
/// non-zero flag marks a deletion. Anything else is malformed: Next()
/// returns false and malformed() turns true. Keys decode with
/// json::ReadString, the string rule json::Parse uses. A caller that stops
/// early never looks at the rest of the bytes, so malformation past its
/// stop point goes unseen.
class PostingListReader {
 public:
  explicit PostingListReader(const Slice& data)
      : p_(data.data()), limit_(data.data() + data.size()) {}

  /// Decode the next entry into *entry. Returns false at the end of the
  /// list and on malformed input.
  bool Next(PostingView* entry);

  bool malformed() const { return state_ == State::kMalformed; }

  /// Entries decoded so far.
  uint64_t count() const { return count_; }

 private:
  enum class State { kStart, kMore, kDone, kMalformed };

  bool Fail() {
    state_ = State::kMalformed;
    return false;
  }
  void SkipWs();
  bool Consume(char c);
  bool ParseEntry(PostingView* entry);
  bool ParseKey(Slice* key);
  bool ParseUint(uint64_t* v);

  const char* p_;
  const char* const limit_;
  State state_ = State::kStart;
  uint64_t count_ = 0;
  std::string scratch_;  // Unescaped key, only for keys holding '\'
};

class PostingList {
 public:
  /// Serialize `entries` (must be sorted by seq descending).
  static void Serialize(const std::vector<PostingEntry>& entries,
                        std::string* out);

  /// Parse a serialized list. Returns false (and leaves *out empty) on
  /// malformed input.
  static bool Parse(const Slice& data, std::vector<PostingEntry>* out);

  /// Number of entries in a serialized list (0 on malformed input) without
  /// decoding the entries — the planner's cardinality probe.
  static uint64_t EntryCount(const Slice& data);

  /// Merge serialized fragments (each internally seq-descending), newest
  /// fragment first, into one serialized seq-descending list with one entry
  /// per primary key: the first occurrence in fragment order wins, and ties
  /// on seq order by primary key. When `drop_deletions` is true, deletion
  /// markers are elided from the output (safe only when no older fragments
  /// can exist below). Returns false, leaving *out unspecified, if any
  /// fragment is malformed; otherwise *entries (if non-null) receives the
  /// number of entries written.
  static bool Merge(const std::vector<Slice>& fragments, bool drop_deletions,
                    std::string* out, size_t* entries = nullptr);
};

/// ValueMerger installed on the Lazy index table's DB: merges posting-list
/// fragments during compaction exactly as Cassandra's index compaction does,
/// and when a fragment lands on a memtable key that already holds one.
class PostingListMerger : public ValueMerger {
 public:
  const char* Name() const override { return "leveldbpp.PostingListMerger"; }

  bool Merge(const Slice& key, const std::vector<Slice>& values_newest_first,
             bool at_bottom, std::string* result) const override;

  /// Process-wide instance.
  static const PostingListMerger* Instance();
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_POSTING_LIST_H_
