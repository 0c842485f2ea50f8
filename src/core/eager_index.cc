#include "core/eager_index.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/posting_list.h"
#include "util/perf_context.h"

namespace leveldbpp {

Status EagerIndex::Open(std::string attribute, DBImpl* primary,
                        const Options& base, const std::string& path,
                        std::unique_ptr<SecondaryIndex>* out) {
  std::unique_ptr<EagerIndex> index(
      new EagerIndex(std::move(attribute), primary));
  Status s = index->OpenIndexTable(base, path, /*merger=*/nullptr);
  if (s.ok()) {
    *out = std::move(index);
  }
  return s;
}

Status EagerIndex::OnPut(const Slice& primary_key, const Slice& attr_value,
                         SequenceNumber seq) {
  // Read-modify-write: fetch the current list, prepend, write back. The
  // write invalidates all older copies in lower levels.
  std::vector<PostingEntry> entries;
  std::string existing;
  Status s = index_db_->Get(ReadOptions(), attr_value, &existing);
  if (s.ok()) {
    // A list that does not parse is reported, never rewritten: writing
    // back only the new entry would drop every other posting of the value.
    if (!PostingList::Parse(Slice(existing), &entries)) {
      return Status::Corruption("bad posting list for ", attr_value);
    }
  } else if (!s.IsNotFound()) {
    return s;
  }
  // Drop any previous occurrence of the key (an update re-inserting the
  // same attribute value), then splice the new entry into seq-descending
  // position. On the write path the new seq is the store's newest so this
  // is a front insert, but RebuildIndex replays records in KEY order and
  // Lookup's top-k early break relies on the descending invariant.
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const PostingEntry& e) {
                                 return Slice(e.primary_key) == primary_key;
                               }),
                entries.end());
  auto pos = std::find_if(entries.begin(), entries.end(),
                          [&](const PostingEntry& e) { return e.seq < seq; });
  entries.insert(pos, PostingEntry(primary_key.ToString(), seq, false));
  std::string serialized;
  PostingList::Serialize(entries, &serialized);
  return index_db_->Put(WriteOptions(), attr_value, Slice(serialized));
}

Status EagerIndex::OnDelete(const Slice& primary_key, const Slice& attr_value,
                            SequenceNumber /*seq*/) {
  // Same read-update-write process (paper Section 4.1.1); the key is simply
  // removed from the list.
  std::vector<PostingEntry> entries;
  std::string existing;
  Status s = index_db_->Get(ReadOptions(), attr_value, &existing);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  if (!PostingList::Parse(Slice(existing), &entries)) {
    return Status::Corruption("bad posting list for ", attr_value);
  }
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const PostingEntry& e) {
                                 return Slice(e.primary_key) == primary_key;
                               }),
                entries.end());
  if (entries.empty()) {
    return index_db_->Delete(WriteOptions(), attr_value);
  }
  std::string serialized;
  PostingList::Serialize(entries, &serialized);
  return index_db_->Put(WriteOptions(), attr_value, Slice(serialized));
}

Status EagerIndex::OnPutBatch(const std::vector<IndexOp>& ops) {
  // Group by attribute value, preserving each group's FIFO order, then do
  // ONE read-modify-write per distinct value. Sequentially applying a
  // group's ops to the in-memory list before the single write-back yields
  // the same final list as per-op RMWs — this is where kDeferredBatch
  // recovers most of Eager's write amplification.
  std::map<std::string, std::vector<const IndexOp*>> groups;
  for (const IndexOp& op : ops) groups[op.attr_value].push_back(&op);
  for (const auto& [attr_value, group] : groups) {
    std::vector<PostingEntry> entries;
    std::string existing;
    Status s = index_db_->Get(ReadOptions(), Slice(attr_value), &existing);
    if (s.ok()) {
      if (!PostingList::Parse(Slice(existing), &entries)) {
        return Status::Corruption("bad posting list for ", attr_value);
      }
    } else if (!s.IsNotFound()) {
      return s;
    }
    for (const IndexOp* op : group) {
      entries.erase(
          std::remove_if(entries.begin(), entries.end(),
                         [&](const PostingEntry& e) {
                           return e.primary_key == op->primary_key;
                         }),
          entries.end());
      if (op->is_delete) continue;
      auto pos =
          std::find_if(entries.begin(), entries.end(),
                       [&](const PostingEntry& e) { return e.seq < op->seq; });
      entries.insert(pos, PostingEntry(op->primary_key, op->seq, false));
    }
    if (entries.empty()) {
      s = index_db_->Delete(WriteOptions(), Slice(attr_value));
    } else {
      std::string serialized;
      PostingList::Serialize(entries, &serialized);
      s = index_db_->Put(WriteOptions(), Slice(attr_value),
                         Slice(serialized));
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status EagerIndex::BulkLoad(const std::vector<IndexOp>& entries) {
  if (index_db_->LastSequence() != 0) {
    // Non-empty table: an ingested list would shadow every existing
    // posting for its attribute value. Replay through the RMW path.
    return SecondaryIndex::BulkLoad(entries);
  }
  // Empty table: the batch IS the complete index. Build one seq-descending
  // posting list per attribute value and splice them in as SSTables.
  std::map<std::string, std::vector<PostingEntry>> lists;
  for (const IndexOp& op : entries) {
    lists[op.attr_value].emplace_back(op.primary_key, op.seq, false);
  }
  auto it = lists.begin();
  IngestFeed feed = [&](std::string* key, std::string* value) {
    if (it == lists.end()) return false;
    key->assign(it->first);
    std::vector<PostingEntry>& list = it->second;
    std::sort(list.begin(), list.end(),
              [](const PostingEntry& a, const PostingEntry& b) {
                return a.seq > b.seq;
              });
    value->clear();
    PostingList::Serialize(list, value);
    ++it;
    return true;
  };
  return index_db_->IngestExternalFiles(feed, nullptr);
}

Status EagerIndex::Lookup(const Slice& value, size_t k,
                          std::vector<QueryResult>* results) {
  results->clear();
  // Algorithm 2: one read retrieves the full, time-ordered list.
  std::string list_data;
  Status s = index_db_->Get(ReadOptions(), value, &list_data);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  // The list is stored-seq-descending: decoding stops at the first entry
  // whose STORED seq the full heap rejects (the stop rule argued in
  // lazy_index.cc). A full heap alone is no cutoff: a crash-stale entry
  // (written index-first, primary never committed) validates at a lower
  // primary seq than it stored, so a full heap may still be displaced by
  // later entries — but never by one whose stored seq is already at or
  // below the heap floor, since a validated result's seq never exceeds the
  // stored seq of the entry that produced it.
  PostingListReader reader(list_data);
  PostingView e;
  TopKCollector heap(k);
  std::set<std::string> seen;
  if (!parallel_reads()) {
    while (reader.Next(&e)) {
      if (!heap.WouldAdmit(e.seq)) break;
      if (e.deleted) continue;
      if (!seen.insert(e.primary_key.ToString()).second) continue;
      QueryResult r;
      if (FetchAndValidate(e.primary_key, value, value, e.seq, &r)) {
        heap.Add(std::move(r));
      }
    }
  } else {
    // Parallel path: validate the list in chunks, each chunk one MultiGet.
    // A chunk may run past the entry where the sequential scan stops, but
    // those extras are older than everything the full heap retains, so
    // Add() rejects them and the final heap is identical. Chunk boundaries
    // apply the same stop rule to the next entry.
    const size_t chunk = BatchChunk(k);
    bool more = reader.Next(&e);
    while (more && heap.WouldAdmit(e.seq)) {
      std::vector<std::string> cand;
      std::vector<SequenceNumber> cand_seqs;
      while (more && cand.size() < chunk) {
        if (!e.deleted && seen.insert(e.primary_key.ToString()).second) {
          cand.push_back(e.primary_key.ToString());
          cand_seqs.push_back(e.seq);
        }
        more = reader.Next(&e);
      }
      std::vector<QueryResult> fetched;
      std::vector<char> valid;
      FetchAndValidateBatch(cand, cand_seqs, value, value, &fetched, &valid);
      for (size_t i = 0; i < cand.size(); i++) {
        if (valid[i]) heap.Add(std::move(fetched[i]));
      }
    }
  }
  // Entries decoded up to the stop point: the same on both paths whenever
  // the candidates a lagging chunk fetches are all valid.
  PerfCounterAdd(&PerfContext::posting_entries_scanned, reader.count());
  if (reader.malformed()) {
    return Status::Corruption("bad posting list for ", value);
  }
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

Status EagerIndex::RangeLookup(const Slice& lo, const Slice& hi, size_t k,
                               std::vector<QueryResult>* results) {
  results->clear();
  // Range scan over the index table's (secondary) keys; merge the K-newest
  // across all matching lists with the min-heap.
  TopKCollector heap(k);
  std::set<std::string> seen;
  // Parallel path: survivors of the pruning below accumulate into chunks,
  // each resolved with one MultiGet. The stale heap makes WouldAdmit fetch
  // a superset of the sequential run's candidates; Add()'s exact predicate
  // then rejects anything the sequential heap would have, so the final
  // top-K is identical.
  const bool batched = parallel_reads();
  const size_t chunk = BatchChunk(k);
  std::vector<std::string> cand;
  std::vector<SequenceNumber> cand_seqs;
  auto flush = [&]() {
    if (cand.empty()) return;
    std::vector<QueryResult> fetched;
    std::vector<char> valid;
    FetchAndValidateBatch(cand, cand_seqs, lo, hi, &fetched, &valid);
    for (size_t i = 0; i < cand.size(); i++) {
      if (valid[i]) heap.Add(std::move(fetched[i]));
    }
    cand.clear();
    cand_seqs.clear();
  };
  std::unique_ptr<Iterator> it(index_db_->NewIterator(ReadOptions()));
  for (it->Seek(lo); it->Valid() && it->key().compare(hi) <= 0; it->Next()) {
    // Stop rule as in Lookup; a malformed list yields its well-formed
    // prefix, whose candidates validation vets.
    PostingListReader reader(it->value());
    PostingView e;
    while (reader.Next(&e)) {
      if (!heap.WouldAdmit(e.seq)) break;
      if (e.deleted) continue;
      if (!seen.insert(e.primary_key.ToString()).second) continue;
      if (batched) {
        cand.push_back(e.primary_key.ToString());
        cand_seqs.push_back(e.seq);
        if (cand.size() >= chunk) flush();
        continue;
      }
      QueryResult r;
      if (FetchAndValidate(e.primary_key, lo, hi, e.seq, &r)) {
        heap.Add(std::move(r));
      }
    }
    PerfCounterAdd(&PerfContext::posting_entries_scanned, reader.count());
  }
  flush();
  if (!it->status().ok()) return it->status();
  *results = heap.TakeSortedNewestFirst();
  return Status::OK();
}

Status EagerIndex::EnumeratePostings(const Slice& value,
                                     std::vector<PostingCandidate>* out) {
  out->clear();
  // The newest list is complete and carries no deletion markers (OnDelete
  // removes keys outright): one read IS the enumeration.
  std::string list_data;
  Status s = index_db_->Get(ReadOptions(), value, &list_data);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  std::vector<PostingEntry> entries;
  if (!PostingList::Parse(Slice(list_data), &entries)) {
    return Status::Corruption("bad posting list for ", value);
  }
  PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
  out->reserve(entries.size());
  std::set<std::string> seen;
  for (PostingEntry& e : entries) {
    if (e.deleted) continue;
    if (!seen.insert(e.primary_key).second) continue;
    out->push_back({std::move(e.primary_key), e.seq});
  }
  return Status::OK();
}

Status EagerIndex::EstimatePostingCount(const Slice& value, uint64_t* count) {
  *count = 0;
  std::string list_data;
  Status s = index_db_->Get(ReadOptions(), value, &list_data);
  if (s.IsNotFound()) return Status::OK();
  if (!s.ok()) return s;
  *count = PostingList::EntryCount(Slice(list_data));
  return Status::OK();
}

Status EagerIndex::EnumerateIndexedKeys(std::vector<std::string>* primary_keys) {
  primary_keys->clear();
  // The merged iterator surfaces only each value's newest (complete) list,
  // so a plain full scan enumerates every posting exactly once per value.
  std::set<std::string> keys;
  std::unique_ptr<Iterator> it(index_db_->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::vector<PostingEntry> entries;
    if (!PostingList::Parse(it->value(), &entries)) continue;
    PerfCounterAdd(&PerfContext::posting_entries_scanned, entries.size());
    for (PostingEntry& e : entries) {
      if (e.deleted) continue;
      keys.insert(std::move(e.primary_key));
    }
  }
  if (!it->status().ok()) return it->status();
  primary_keys->assign(keys.begin(), keys.end());
  return Status::OK();
}

}  // namespace leveldbpp
