#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <queue>

#include "compress/codec.h"
#include "core/document.h"
#include "core/posting_list.h"
#include "core/standalone_index.h"
#include "db/db_impl.h"
#include "env/env.h"
#include "json/json.h"
#include "util/crc32c.h"

namespace perfbench {

using namespace leveldbpp;

const char* const kUserAttr = "UserID";
const char* const kTimeAttr = "CreationTime";
const char* const kClassNames[kClasses] = {"put", "get", "lookup",
                                           "rangelookup"};

// ---- Report ----

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    // Every digit the double holds; non-finite values are not JSON.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Report RunWorkload(const RunSpec& spec) {
  if (spec.workload == "static-query") return RunStaticQuery(spec);
  if (spec.workload == "update-mix") return RunUpdateMix(spec);
  if (spec.workload == "served") return RunServed(spec);
  Report r;
  r.correct = false;
  return r;
}

// ---- Op generation ----

namespace {
TweetGeneratorOptions TweetOptions(uint64_t seed) {
  TweetGeneratorOptions o;
  o.seed = seed;
  return o;
}
}  // namespace

OpGenerator::OpGenerator(uint64_t seed)
    : tweets_(TweetOptions(seed)),
      query_users_(TweetOptions(seed).num_users,
                   TweetOptions(seed).zipf_exponent, seed ^ 0x5bd1e995u),
      rnd_(seed * 0x9E3779B97F4A7C15ull + 7),
      first_time_(TweetOptions(seed).start_time + 1) {}

Tweet OpGenerator::NextTweet() { return tweets_.Next(); }

Corpus OpGenerator::Preload(size_t n) {
  Corpus c;
  c.keys.reserve(n);
  c.docs.reserve(n);
  for (size_t i = 0; i < n; i++) {
    Tweet t = NextTweet();
    c.docs.push_back(t.ToJson());
    c.user_bytes += t.tweet_id.size() + c.docs.back().size();
    c.keys.push_back(std::move(t.tweet_id));
    c.users.push_back(std::move(t.user_id));
    c.ctimes.push_back(std::move(t.creation_time));
  }
  return c;
}

std::vector<Op> OpGenerator::Ops(size_t n, const Mix& mix,
                                 std::vector<std::string>* update_keys,
                                 std::vector<std::string>* get_keys) {
  double total = 0;
  for (double s : mix.share) total += s;
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    double u = rnd_.NextDouble() * total;
    int kind = 0;
    while (kind < kKinds - 1 && u >= mix.share[kind]) {
      u -= mix.share[kind];
      kind++;
    }
    op.kind = static_cast<Kind>(kind);
    switch (op.kind) {
      case Kind::kPut:
      case Kind::kUpdate: {
        Tweet t = NextTweet();
        if (op.kind == Kind::kUpdate) {
          t.tweet_id = (*update_keys)[rnd_.Uniform(update_keys->size())];
        } else {
          update_keys->push_back(t.tweet_id);
          get_keys->push_back(t.tweet_id);
        }
        op.doc = t.ToJson();
        op.key = std::move(t.tweet_id);
        op.user = std::move(t.user_id);
        op.lo = std::move(t.creation_time);
        break;
      }
      case Kind::kGet:
        op.key = (*get_keys)[rnd_.Uniform(get_keys->size())];
        break;
      case Kind::kLookup:
        op.user = TweetGenerator::UserIdForRank(query_users_.Next());
        break;
      case Kind::kRange: {
        // Windows start uniformly over the CreationTimes generated so far.
        const uint64_t last = tweets_.current_time();
        const uint64_t span = last >= first_time_ + mix.range_seconds
                                  ? last - first_time_ - mix.range_seconds + 1
                                  : 1;
        const uint64_t lo = first_time_ + rnd_.Uniform(span);
        op.lo = TweetGenerator::EncodeTime(lo);
        op.hi = TweetGenerator::EncodeTime(lo + mix.range_seconds - 1);
        break;
      }
    }
  }
  return ops;
}

// ---- Model ----

void Model::Put(const std::string& key, const std::string& doc,
                const std::string& user, const std::string& ctime) {
  auto it = recs_.find(key);
  if (it != recs_.end()) {
    Rec& old = it->second;
    by_user_[old.user].erase({old.order, key});
    by_time_[old.ctime].erase({old.order, key});
    live_bytes_ -= key.size() + old.doc.size();
    old = Rec{++clock_, doc, user, ctime};
  } else {
    it = recs_.emplace(key, Rec{++clock_, doc, user, ctime}).first;
  }
  live_bytes_ += key.size() + doc.size();
  by_user_[user].insert({it->second.order, key});
  by_time_[ctime].insert({it->second.order, key});
}

const std::string* Model::Get(const std::string& key) const {
  auto it = recs_.find(key);
  return it == recs_.end() ? nullptr : &it->second.doc;
}

std::vector<std::string> Model::Lookup(const std::string& user,
                                       size_t k) const {
  std::vector<std::string> out;
  auto it = by_user_.find(user);
  if (it == by_user_.end()) return out;
  for (const auto& [order, key] : it->second) {
    if (out.size() == k) break;
    out.push_back(key);
  }
  return out;
}

std::vector<std::string> Model::Range(const std::string& lo,
                                      const std::string& hi, size_t k) const {
  // Min-heap of the k newest (order, key) pairs in [lo, hi].
  std::priority_queue<std::pair<uint64_t, std::string>,
                      std::vector<std::pair<uint64_t, std::string>>,
                      std::greater<std::pair<uint64_t, std::string>>>
      heap;
  for (auto it = by_time_.lower_bound(lo);
       it != by_time_.end() && it->first <= hi; ++it) {
    for (const auto& entry : it->second) {
      if (heap.size() < k) {
        heap.push(entry);
      } else if (entry.first > heap.top().first) {
        heap.pop();
        heap.push(entry);
      }
    }
  }
  std::vector<std::string> out(heap.size());
  for (size_t i = out.size(); i > 0; i--) {
    out[i - 1] = heap.top().second;
    heap.pop();
  }
  return out;
}

void PredictAnswers(const Corpus& corpus, std::vector<Op>* ops,
                    Model* model) {
  for (size_t i = 0; i < corpus.keys.size(); i++) {
    model->Put(corpus.keys[i], corpus.docs[i], corpus.users[i],
               corpus.ctimes[i]);
  }
  for (Op& op : *ops) {
    switch (op.kind) {
      case Kind::kPut:
      case Kind::kUpdate:
        model->Put(op.key, op.doc, op.user, op.lo);
        break;
      case Kind::kGet: {
        const std::string* doc = model->Get(op.key);
        op.expect = doc != nullptr ? HashBytes(*doc) : 0;
        break;
      }
      case Kind::kLookup:
        op.expect = HashKeys(model->Lookup(op.user, kTopK));
        break;
      case Kind::kRange:
        op.expect = HashKeys(model->Range(op.lo, op.hi, kTopK));
        break;
    }
  }
}

// ---- Hashing (FNV-1a) ----

uint64_t HashBytes(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashU64(uint64_t x, uint64_t h) {
  for (int i = 0; i < 8; i++) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashKeys(const std::vector<std::string>& keys) {
  uint64_t h = HashU64(keys.size(), 1469598103934665603ull);
  for (const std::string& k : keys) h = HashBytes(k, HashU64(k.size(), h));
  return h;
}

uint64_t HashKeys(const std::vector<QueryResult>& results) {
  uint64_t h = HashU64(results.size(), 1469598103934665603ull);
  for (const QueryResult& r : results) {
    h = HashBytes(r.primary_key, HashU64(r.primary_key.size(), h));
  }
  return h;
}

uint64_t FoldDigest(uint64_t digest, const std::vector<QueryResult>& results) {
  digest = HashU64(results.size(), digest);
  for (const QueryResult& r : results) {
    digest = HashBytes(r.primary_key, digest);
    digest = HashU64(r.seq, digest);
  }
  return digest;
}

// ---- Process and disk ----

namespace {

// One "Vm...:   <kB> kB" field of /proc/self/status, in MB.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ProcStatusMb("VmHWM"); }
double RssMb() { return ProcStatusMb("VmRSS"); }

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t EnvFileBytes(Env* env, const std::string& path) {
  uint64_t total = 0;
  for (const std::string& dir :
       {path + "/primary", path + "/index_" + kUserAttr,
        path + "/index_" + kTimeAttr}) {
    std::vector<std::string> names;
    env->GetChildren(dir, &names);
    for (const std::string& name : names) {
      uint64_t size = 0;
      if (env->GetFileSize(dir + "/" + name, &size).ok()) total += size;
    }
  }
  return total;
}

uint64_t DirBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t LiveTableBytes(SecondaryDB* db) {
  std::vector<DBImpl*> tables = {db->primary()};
  for (const char* attr : {kUserAttr, kTimeAttr}) {
    if (auto* index = dynamic_cast<StandAloneIndex*>(db->index(attr))) {
      tables.push_back(index->index_db());
    }
  }
  uint64_t total = 0;
  for (DBImpl* table : tables) {
    // total-bytes is the current version's tables plus the memtables.
    std::string all, memory;
    table->GetProperty("leveldbpp.total-bytes", &all);
    table->GetProperty("leveldbpp.approximate-memory-usage", &memory);
    total += std::stoull(all) - std::stoull(memory);
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

SecondaryDBOptions StoreOptions(IndexType type) {
  SecondaryDBOptions o;
  o.base.env = Env::Posix();
  o.base.write_buffer_size = 1 << 20;
  o.base.max_file_size = 512 << 10;
  o.base.max_bytes_for_level_base = 4 << 20;
  o.base.compression = kSimpleLZCompression;
  o.index_type = type;
  o.indexed_attributes = {kUserAttr, kTimeAttr};
  return o;
}

void JobClock::OnCompactionBegin(const CompactionJobInfo& info) {
  std::lock_guard<std::mutex> l(mu_);
  begin_[info.db_name] = NowNs();
}

void JobClock::OnCompactionEnd(const CompactionJobInfo& info) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> l(mu_);
  auto it = begin_.find(info.db_name);
  if (it == begin_.end()) return;
  compaction_ns_ += now - it->second;
  begin_.erase(it);
}

int64_t JobClock::compaction_ns() const {
  std::lock_guard<std::mutex> l(mu_);
  return compaction_ns_;
}

// ---- Per-layer metrics ----

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"serve.tax_us.get", "us"},
      {"serve.tax_us.lookup", "us"},
      {"serve.tax_us.put", "us"},
      {"serve.wire_ns.encode", "ns/op"},
      {"serve.wire_ns.decode", "ns/op"},
      {"serve.bytes_per_op", "B/op"},
      {"serve.shard_lookup_us", "us"},
      {"serve.merge_candidates_per_lookup", "count/op"},
      {"serve.write_stall_ms", "ms"},
      {"core.posting_entries.lookup", "count/op"},
      {"core.posting_entries.rangelookup", "count/op"},
      {"core.candidates.lookup", "count/op"},
      {"core.candidates.rangelookup", "count/op"},
      {"core.validate_share.lookup", "ratio"},
      {"core.validate_share.rangelookup", "ratio"},
      {"core.valid_share.lookup", "ratio"},
      {"core.records_scanned.lookup", "count/op"},
      {"core.posting_parse_ns_per_entry", "ns/entry"},
      {"core.posting_serialize_ns_per_entry", "ns/entry"},
      {"json.extract_ns_per_doc", "ns/doc"},
      {"json.parse_ns_per_doc", "ns/doc"},
      {"db.get_us", "us"},
      {"db.multiget_us_per_key", "us/key"},
      {"db.flushes_per_1k_puts", "count"},
      {"db.compactions_per_1k_puts", "count"},
      {"db.compaction_ms_per_1k_puts", "ms"},
      {"db.compaction_bytes_per_user_byte", "ratio"},
      {"wal.bytes_per_put", "B/op"},
      {"table.blocks_read.get", "count/op"},
      {"table.blocks_read.lookup", "count/op"},
      {"table.blocks_read.rangelookup", "count/op"},
      {"table.kb_read.get", "KB/op"},
      {"table.kb_read.lookup", "KB/op"},
      {"table.kb_read.rangelookup", "KB/op"},
      {"table.bloom_useful_share.get", "ratio"},
      {"table.bloom_useful_share.lookup", "ratio"},
      {"table.zonemap_pruned.rangelookup", "count/op"},
      {"table.seek_reads.rangelookup", "count/op"},
      {"compress.uncompress_ns_per_kb", "ns/KB"},
      {"util.crc32c_ns_per_kb", "ns/KB"},
      {"compress.compress_ns_per_kb", "ns/KB"},
  };
  return kMetrics;
}

void FillMissingLayerMetrics(Report* r) {
  for (const LayerMetric& m : LayerMetrics()) {
    if (r->Find(m.name) == nullptr) r->Add(m.name, 0, m.unit, true);
  }
  // Report order follows the dictionary.
  std::vector<Metric> ordered;
  for (const LayerMetric& m : LayerMetrics()) {
    ordered.push_back(*r->Find(m.name));
  }
  r->metrics = std::move(ordered);
}

void AddLayer(Report* r, const std::string& name, double value,
              bool counter) {
  for (const LayerMetric& m : LayerMetrics()) {
    if (name == m.name) {
      r->Add(name, value, m.unit, counter);
      return;
    }
  }
  // A name missing from the dictionary is a bug in this benchmark.
  r->correct = false;
  std::fprintf(stderr, "unknown per-layer metric %s\n", name.c_str());
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs `pass` (which returns elapsed ns) `passes` times and returns the
/// median.
double MedianPass(int passes, const std::function<int64_t()>& pass) {
  std::vector<double> v;
  for (int i = 0; i < passes; i++) v.push_back(static_cast<double>(pass()));
  return Median(v);
}
}  // namespace

void AddDocumentReplays(const std::vector<std::string>& docs, Report* r) {
  const size_t n = std::min<size_t>(docs.size(), 20000);
  if (n == 0) return;
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  std::string out;
  size_t sink = 0;
  const double extract_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; i++) {
      extractor->Extract(Slice(docs[i]), kUserAttr, &out);
      sink += out.size();
      extractor->Extract(Slice(docs[i]), kTimeAttr, &out);
      sink += out.size();
    }
    return NowNs() - t0;
  });
  AddLayer(r, "json.extract_ns_per_doc", extract_ns / n);
  const double parse_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; i++) {
      json::Value v;
      sink += json::Parse(Slice(docs[i]), &v) ? 1 : 0;
    }
    return NowNs() - t0;
  });
  AddLayer(r, "json.parse_ns_per_doc", parse_ns / n);

  // 4 KB blocks cut from the concatenated documents, as a table block holds.
  constexpr size_t kBlock = 4096;
  std::vector<std::string> blocks;
  std::string cur;
  for (size_t i = 0; i < n && blocks.size() < 1024; i++) {
    cur += docs[i];
    if (cur.size() >= kBlock) {
      blocks.push_back(cur.substr(0, kBlock));
      cur.clear();
    }
  }
  if (blocks.empty()) return;
  const double kb = static_cast<double>(blocks.size()) * kBlock / 1024.0;
  std::vector<std::string> compressed(blocks.size());
  const double compress_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < blocks.size(); i++) {
      compressed[i].clear();
      simplelz::Compress(Slice(blocks[i]), &compressed[i]);
    }
    return NowNs() - t0;
  });
  std::string plain(kBlock, '\0');
  const double uncompress_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < blocks.size(); i++) {
      uint32_t len = 0;
      if (simplelz::GetUncompressedLength(Slice(compressed[i]), &len) &&
          len == kBlock) {
        simplelz::Uncompress(Slice(compressed[i]), plain.data());
      }
      sink += plain[0];
    }
    return NowNs() - t0;
  });
  for (size_t i = 0; i < blocks.size(); i++) {
    uint32_t len = 0;
    if (!simplelz::GetUncompressedLength(Slice(compressed[i]), &len) ||
        len != kBlock ||
        !simplelz::Uncompress(Slice(compressed[i]), plain.data()) ||
        plain != blocks[i]) {
      r->mismatches++;
    }
  }
  uint32_t crc = 0;
  const double crc_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (const std::string& b : blocks) {
      crc ^= crc32c::Value(b.data(), b.size());
    }
    return NowNs() - t0;
  });
  sink += crc;
  AddLayer(r, "compress.compress_ns_per_kb", compress_ns / kb);
  AddLayer(r, "compress.uncompress_ns_per_kb", uncompress_ns / kb);
  AddLayer(r, "util.crc32c_ns_per_kb", crc_ns / kb);
  if (sink == 0) r->mismatches++;  // keeps the replays from being elided
}

void AddClassTrace(const ClassTrace& t, Report* r) {
  auto per_op = [&](Class c, double v) { return Ratio(v, t.ops[c]); };
  const PerfContext& get = t.sum[kGetClass];
  const PerfContext& lookup = t.sum[kLookupClass];
  const PerfContext& range = t.sum[kRangeClass];
  auto add = [&](const std::string& name, double v, bool counter = true) {
    AddLayer(r, name, v, counter);
  };
  add("core.posting_entries.lookup",
      per_op(kLookupClass, lookup.posting_entries_scanned));
  add("core.posting_entries.rangelookup",
      per_op(kRangeClass, range.posting_entries_scanned));
  add("core.candidates.lookup",
      per_op(kLookupClass, lookup.candidates_validated));
  add("core.candidates.rangelookup",
      per_op(kRangeClass, range.candidates_validated));
  add("core.validate_share.lookup",
      Ratio(lookup.validate_micros, lookup.lookup_micros), false);
  add("core.validate_share.rangelookup",
      Ratio(range.validate_micros, range.lookup_micros), false);
  // Answers returned per candidate examined: stand-alone variants examine
  // candidates by validating them, Embedded by scanning block records.
  add("core.valid_share.lookup",
      Ratio(t.returned[kLookupClass],
            lookup.candidates_validated + lookup.candidate_records_scanned));
  add("core.records_scanned.lookup",
      per_op(kLookupClass, lookup.candidate_records_scanned));
  const Class classes[3] = {kGetClass, kLookupClass, kRangeClass};
  for (Class c : classes) {
    const std::string suffix = kClassNames[c];
    add("table.blocks_read." + suffix,
        per_op(c, t.sum[c].TickerValue(kBlockRead)));
    add("table.kb_read." + suffix,
        per_op(c, t.sum[c].TickerValue(kBlockReadBytes) / 1024.0));
  }
  add("table.bloom_useful_share.get",
      Ratio(get.TickerValue(kBloomPrimaryUseful),
            get.TickerValue(kBloomPrimaryChecked)));
  add("table.bloom_useful_share.lookup",
      Ratio(lookup.TickerValue(kBloomSecondaryUseful),
            lookup.TickerValue(kBloomSecondaryChecked)));
  add("table.zonemap_pruned.rangelookup",
      per_op(kRangeClass, range.TickerValue(kZoneMapFilePruned) +
                              range.TickerValue(kZoneMapBlockPruned)));
  add("table.seek_reads.rangelookup",
      per_op(kRangeClass, range.TickerValue(kSeekDiskReads)));
}

void AddPostingReplay(SecondaryDB* db, Report* r) {
  std::vector<std::string> values;
  for (const char* attr : {kUserAttr, kTimeAttr}) {
    auto* index = dynamic_cast<StandAloneIndex*>(db->index(attr));
    if (index == nullptr || index->type() != IndexType::kLazy) continue;
    std::unique_ptr<Iterator> it(index->index_db()->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      values.push_back(it->value().ToString());
    }
  }
  if (values.empty()) return;
  std::vector<std::vector<PostingEntry>> parsed(values.size());
  uint64_t entries = 0;
  for (size_t i = 0; i < values.size(); i++) {
    if (!PostingList::Parse(Slice(values[i]), &parsed[i])) r->mismatches++;
    entries += parsed[i].size();
  }
  if (entries == 0) return;
  const double parse_ns = MedianPass(3, [&] {
    std::vector<PostingEntry> out;
    const int64_t t0 = NowNs();
    for (const std::string& v : values) {
      out.clear();
      PostingList::Parse(Slice(v), &out);
    }
    return NowNs() - t0;
  });
  std::string out;
  const double serialize_ns = MedianPass(3, [&] {
    const int64_t t0 = NowNs();
    for (const auto& list : parsed) {
      out.clear();
      PostingList::Serialize(list, &out);
    }
    return NowNs() - t0;
  });
  AddLayer(r, "core.posting_parse_ns_per_entry", parse_ns / entries);
  AddLayer(r, "core.posting_serialize_ns_per_entry", serialize_ns / entries);
}

void AddWriteSideLayers(const WriteCounters& w, uint64_t puts,
                        uint64_t user_bytes, Report* r) {
  const double per_1k = puts > 0 ? 1000.0 / puts : 0;
  AddLayer(r, "db.flushes_per_1k_puts", w.flushes * per_1k, true);
  AddLayer(r, "db.compactions_per_1k_puts", w.compactions * per_1k, true);
  AddLayer(r, "db.compaction_ms_per_1k_puts",
           w.compaction_ns / 1e6 * per_1k);
  AddLayer(r, "db.compaction_bytes_per_user_byte",
           user_bytes > 0 ? static_cast<double>(w.table) / user_bytes : 0,
           true);
  AddLayer(r, "wal.bytes_per_put",
           puts > 0 ? static_cast<double>(w.wal) / puts : 0, true);
}

void AppendLookupCandidates(SecondaryDB* db, const std::string& value,
                            std::vector<std::string>* keys) {
  std::vector<PostingCandidate> candidates;
  if (!db->index(kUserAttr)->EnumeratePostings(value, &candidates).ok()) {
    return;
  }
  for (PostingCandidate& c : candidates) {
    keys->push_back(std::move(c.primary_key));
  }
}

void AddPointReadReplays(
    const std::vector<std::string>& get_keys,
    const std::vector<std::vector<std::string>>& lookup_keys,
    const std::function<DBImpl*(const std::string&)>& table_of, Report* r) {
  Samples gets;
  std::string value;
  for (const std::string& key : get_keys) {
    DBImpl* table = table_of(key);
    const int64_t t = NowNs();
    Status s = table->Get(ReadOptions(), key, &value);
    gets.Add(NowNs() - t);
    if (!s.ok()) r->mismatches++;
  }
  AddLayer(r, "db.get_us", gets.PercentileUs(50));

  int64_t multiget_ns = 0;
  uint64_t multiget_keys = 0;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (const auto& keys : lookup_keys) {
    std::map<DBImpl*, std::vector<Slice>> by_table;
    for (const std::string& k : keys) by_table[table_of(k)].push_back(Slice(k));
    for (const auto& [table, slices] : by_table) {
      const int64_t t = NowNs();
      Status s = table->MultiGet(ReadOptions(), slices, &values, &statuses);
      multiget_ns += NowNs() - t;
      multiget_keys += slices.size();
      if (!s.ok()) r->mismatches++;
    }
  }
  AddLayer(r, "db.multiget_us_per_key",
           multiget_keys > 0 ? multiget_ns / 1e3 / multiget_keys : 0);
}

void Latencies::Merge(const Latencies& other) {
  for (int i = 0; i < kRounds; i++) {
    for (int c = 0; c < kClasses; c++) round[i][c].Merge(other.round[i][c]);
  }
}

Samples Latencies::All(Class c) const {
  Samples all;
  for (int i = 0; i < kRounds; i++) all.Merge(round[i][c]);
  return all;
}

void AddLatencyMetrics(const Latencies& lat, bool stationary, Report* r) {
  for (int c = 0; c < kClasses; c++) {
    const std::string name = kClassNames[c];
    Samples all = lat.All(static_cast<Class>(c));
    std::vector<double> p50s, p99s;
    size_t min_beyond = all.size();
    for (int i = 0; i < kRounds; i++) {
      Samples round = lat.round[i][c];
      if (round.empty()) continue;
      p50s.push_back(round.PercentileUs(50));
      p99s.push_back(round.PercentileUs(99));
      min_beyond = std::min(min_beyond, round.Beyond(99));
    }
    const double p99 = stationary ? Median(p99s) : all.PercentileUs(99);
    r->Add(name + "_p50_us", all.PercentileUs(50), "us");
    r->Add(name + "_p99_us", p99, "us");
    std::fprintf(stderr,
                 "%-12s n=%-7zu beyond_p99/round>=%-4zu p50=%.1f p99=%.1f "
                 "(all: %.1f; rounds:",
                 name.c_str(), all.size(), min_beyond, all.PercentileUs(50),
                 p99, all.PercentileUs(99));
    for (double p : p99s) std::fprintf(stderr, " %.1f", p);
    std::fprintf(stderr, "; p50s:");
    for (double p : p50s) std::fprintf(stderr, " %.1f", p);
    std::fprintf(stderr, ") max=%.1f us\n", all.PercentileUs(100));
  }
}

}  // namespace perfbench
