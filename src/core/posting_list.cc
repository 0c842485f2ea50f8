#include "core/posting_list.h"

#include <algorithm>
#include <charconv>
#include <forward_list>
#include <string_view>
#include <unordered_set>

#include "json/json.h"

namespace leveldbpp {

void PostingListReader::SkipWs() {
  while (p_ < limit_ &&
         (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
    p_++;
  }
}

bool PostingListReader::Consume(char c) {
  SkipWs();
  if (p_ >= limit_ || *p_ != c) return false;
  p_++;
  return true;
}

bool PostingListReader::ParseKey(Slice* key) {
  // A view into the list, or into scratch_ when the key holds escapes.
  SkipWs();
  return json::ReadString(&p_, limit_, key, &scratch_);
}

bool PostingListReader::ParseUint(uint64_t* v) {
  SkipWs();
  const char* start = p_;
  uint64_t n = 0;
  while (p_ < limit_ && *p_ >= '0' && *p_ <= '9') {
    n = n * 10 + static_cast<uint64_t>(*p_ - '0');
    if (n > kMaxSequenceNumber) return false;  // Also guards overflow
    p_++;
  }
  if (p_ == start) return false;
  *v = n;
  return true;
}

bool PostingListReader::Next(PostingView* entry) {
  if (state_ == State::kStart) {
    if (!Consume('[')) return Fail();
    state_ = State::kMore;
    if (!Consume(']')) return ParseEntry(entry);
  } else if (state_ == State::kMore) {
    if (!Consume(']')) return Consume(',') ? ParseEntry(entry) : Fail();
  } else {
    return false;  // kDone or kMalformed
  }
  // The list's closing bracket is consumed: only whitespace may follow.
  SkipWs();
  if (p_ != limit_) return Fail();
  state_ = State::kDone;
  return false;
}

bool PostingListReader::ParseEntry(PostingView* entry) {
  uint64_t flag = 0;
  if (!Consume('[') || !ParseKey(&entry->primary_key) || !Consume(',') ||
      !ParseUint(&entry->seq) || (Consume(',') && !ParseUint(&flag)) ||
      !Consume(']')) {
    return Fail();
  }
  entry->deleted = flag != 0;
  count_++;
  return true;
}

namespace {

void AppendEntry(std::string* out, const Slice& key, SequenceNumber seq,
                 bool deleted) {
  out->push_back('[');
  json::AppendQuoted(out, key);
  out->push_back(',');
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), seq);
  out->append(buf, r.ptr - buf);
  if (deleted) out->append(",1");
  out->push_back(']');
}

struct MergeEntry {
  Slice key;
  SequenceNumber seq;
  bool deleted;
};

// The canonical output order: seq descending, ties by primary key.
bool NewerFirst(const MergeEntry& a, const MergeEntry& b) {
  if (a.seq != b.seq) return a.seq > b.seq;
  return a.key.compare(b.key) < 0;
}

}  // namespace

void PostingList::Serialize(const std::vector<PostingEntry>& entries,
                            std::string* out) {
  out->clear();
  out->push_back('[');
  bool first = true;
  for (const PostingEntry& e : entries) {
    if (!first) out->push_back(',');
    first = false;
    AppendEntry(out, Slice(e.primary_key), e.seq, e.deleted);
  }
  out->push_back(']');
}

bool PostingList::Parse(const Slice& data, std::vector<PostingEntry>* out) {
  out->clear();
  PostingListReader reader(data);
  PostingView v;
  while (reader.Next(&v)) {
    out->emplace_back(v.primary_key.ToString(), v.seq, v.deleted);
  }
  if (reader.malformed()) {
    out->clear();
    return false;
  }
  return true;
}

uint64_t PostingList::EntryCount(const Slice& data) {
  // Entries never contain nested arrays, so counting the '[' openers after
  // the list's own is exact — and quotes inside primary keys are escaped by
  // AppendQuoted, keeping the in-string scan state honest.
  uint64_t count = 0;
  bool in_string = false;
  for (size_t i = 1; i < data.size(); i++) {
    const char c = data[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      count++;
    }
  }
  return count;
}

bool PostingList::Merge(const std::vector<Slice>& fragments,
                        bool drop_deletions, std::string* out,
                        size_t* entries) {
  // Decode every fragment into views, in fragment order. A key outside its
  // fragment's bytes sits in the reader's scratch buffer (it held escapes)
  // and is copied out before the next entry overwrites it.
  std::vector<MergeEntry> all;
  std::forward_list<std::string> unescaped;
  for (const Slice& fragment : fragments) {
    PostingListReader reader(fragment);
    PostingView v;
    while (reader.Next(&v)) {
      Slice key = v.primary_key;
      if (key.data() < fragment.data() ||
          key.data() >= fragment.data() + fragment.size()) {
        unescaped.emplace_front(key.data(), key.size());
        key = Slice(unescaped.front());
      }
      all.push_back({key, v.seq, v.deleted});
    }
    if (reader.malformed()) return false;
  }

  // Keep each primary key's first occurrence in fragment order (newest
  // fragment first, so its newest state), compacting in place; the set
  // holds views of the key bytes, which outlive the moves.
  std::unordered_set<std::string_view> seen;
  seen.reserve(all.size());
  size_t kept = 0;
  for (const MergeEntry& e : all) {
    if (seen.insert(e.key.ToStringView()).second) all[kept++] = e;
  }
  all.resize(kept);
  std::sort(all.begin(), all.end(), NewerFirst);

  out->clear();
  out->push_back('[');
  size_t written = 0;
  for (const MergeEntry& e : all) {
    if (drop_deletions && e.deleted) continue;
    if (written++ > 0) out->push_back(',');
    AppendEntry(out, e.key, e.seq, e.deleted);
  }
  out->push_back(']');
  if (entries != nullptr) *entries = written;
  return true;
}

bool PostingListMerger::Merge(const Slice& key,
                              const std::vector<Slice>& values_newest_first,
                              bool at_bottom, std::string* result) const {
  (void)key;
  size_t entries = 0;
  if (!PostingList::Merge(values_newest_first, /*drop_deletions=*/at_bottom,
                          result, &entries)) {
    // Never drop data on a malformed fragment: keep the raw newest value.
    *result = values_newest_first[0].ToString();
    return true;
  }
  if (entries == 0 && at_bottom) {
    return false;  // List fully deleted; drop the key.
  }
  return true;
}

const PostingListMerger* PostingListMerger::Instance() {
  static PostingListMerger singleton;
  return &singleton;
}

}  // namespace leveldbpp
