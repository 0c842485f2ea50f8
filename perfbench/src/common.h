// Shared pieces of the benchmark: run specification, report format,
// pre-generated op lists, the reference model that predicts every answer,
// answer digests and process/disk measurements.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/secondary_db.h"
#include "db/event_listener.h"
#include "samples.h"
#include "util/perf_context.h"
#include "util/random.h"
#include "workload/tweet_generator.h"
#include "workload/zipf.h"

namespace leveldbpp {
class DBImpl;
class Env;
}

namespace perfbench {

using leveldbpp::QueryResult;
using leveldbpp::Status;

struct RunSpec {
  std::string workload;  // static-query | update-mix | served
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;  // scratch directory, wiped before and after
  // Multiplies every store and op-list size; 1.0 is the benchmark, the
  // determinism test uses a small value.
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // True for metrics derived only from counts (no clock): these repeat bit
  // for bit on the deterministic in-process workloads.
  bool counter = false;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // answers that differ from the reference
  uint64_t digest = 0;      // hash of every query's (key, seq) answers
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           bool counter = false) {
    metrics.push_back({name, value, unit, counter});
  }
  const Metric* Find(const std::string& name) const;
  /// The benchmark's result line: {"correct", "attempted", "failed",
  /// "metrics"}.
  std::string ToJson() const;
};

/// Runs one workload as the spec says. Defined per workload family.
Report RunStaticQuery(const RunSpec& spec);
Report RunUpdateMix(const RunSpec& spec);
Report RunServed(const RunSpec& spec);
Report RunWorkload(const RunSpec& spec);

// ---- Op lists ----

enum class Kind : uint8_t { kPut, kUpdate, kGet, kLookup, kRange };
constexpr int kKinds = 5;

/// Latency classes: updates are PUTs of an existing key, so both share the
/// "put" class.
enum Class : int { kPutClass = 0, kGetClass, kLookupClass, kRangeClass };
constexpr int kClasses = 4;
// put, get, lookup, rangelookup
extern const char* const kClassNames[kClasses];
inline Class ClassOf(Kind k) {
  switch (k) {
    case Kind::kPut:
    case Kind::kUpdate:
      return kPutClass;
    case Kind::kGet:
      return kGetClass;
    case Kind::kLookup:
      return kLookupClass;
    case Kind::kRange:
      return kRangeClass;
  }
  return kPutClass;
}

struct Op {
  Kind kind = Kind::kGet;
  std::string key;        // put / update / get
  std::string doc;        // put / update
  std::string user;       // put / update: UserID; lookup: the value
  std::string lo, hi;     // put / update: lo = CreationTime; range: [lo, hi]
  uint64_t expect = 0;    // expected answer hash (in-process workloads)
};

struct Mix {
  // Shares per Kind, in Kind order; need not sum to exactly 1.
  double share[kKinds] = {0, 0, 0, 0, 0};
  // RANGELOOKUP window width in seconds of CreationTime.
  uint64_t range_seconds = 60;
};

constexpr size_t kTopK = 10;
extern const char* const kUserAttr;  // "UserID"
extern const char* const kTimeAttr;  // "CreationTime"

/// Executes one op on any store with SecondaryDB's query surface
/// (SecondaryDB, ShardedDB, Client); fills `value` / `results`.
template <typename Store>
Status Execute(Store* store, const Op& op, std::string* value,
               std::vector<QueryResult>* results) {
  results->clear();
  switch (op.kind) {
    case Kind::kPut:
    case Kind::kUpdate:
      return store->Put(op.key, op.doc);
    case Kind::kGet:
      return store->Get(op.key, value);
    case Kind::kLookup:
      return store->Lookup(kUserAttr, op.user, kTopK, results);
    case Kind::kRange:
      return store->RangeLookup(kTimeAttr, op.lo, op.hi, kTopK, results);
  }
  return Status::OK();
}

/// The store's starting documents, generated from the seed.
struct Corpus {
  std::vector<std::string> keys;
  std::vector<std::string> docs;
  std::vector<std::string> users;
  std::vector<std::string> ctimes;
  uint64_t user_bytes = 0;  // sum of key + doc bytes
};

/// Seeded generator of tweets, op kinds and query arguments. Every draw is
/// made before a measured phase starts.
class OpGenerator {
 public:
  explicit OpGenerator(uint64_t seed);
  Corpus Preload(size_t n);
  /// `n` ops drawn from `mix`. Updates pick uniformly from `update_keys`;
  /// GETs from `get_keys`. New PUT keys are appended to both key lists, so
  /// later ops may read or update them.
  std::vector<Op> Ops(size_t n, const Mix& mix,
                      std::vector<std::string>* update_keys,
                      std::vector<std::string>* get_keys);

 private:
  leveldbpp::Tweet NextTweet();

  leveldbpp::TweetGenerator tweets_;
  leveldbpp::ZipfGenerator query_users_;
  leveldbpp::Random64 rnd_;
  uint64_t first_time_;
};

// ---- Reference model ----

/// In-memory model of the store: the newest document per key and, per
/// attribute value, the keys carrying it ordered newest first. It predicts
/// every GET / LOOKUP / RANGELOOKUP answer of a single-writer op list.
class Model {
 public:
  void Put(const std::string& key, const std::string& doc,
           const std::string& user, const std::string& ctime);
  const std::string* Get(const std::string& key) const;
  std::vector<std::string> Lookup(const std::string& user, size_t k) const;
  std::vector<std::string> Range(const std::string& lo, const std::string& hi,
                                 size_t k) const;
  /// Sum of key + document bytes of the newest version of each key.
  uint64_t live_bytes() const { return live_bytes_; }

 private:
  struct Rec {
    uint64_t order;
    std::string doc, user, ctime;
  };
  using Posting = std::set<std::pair<uint64_t, std::string>,
                           std::greater<std::pair<uint64_t, std::string>>>;
  std::unordered_map<std::string, Rec> recs_;
  std::unordered_map<std::string, Posting> by_user_;
  std::map<std::string, Posting> by_time_;
  uint64_t clock_ = 0;
  uint64_t live_bytes_ = 0;
};

/// Loads the corpus into the model and computes Op::expect for every
/// read op of `ops`, applying its writes in order.
void PredictAnswers(const Corpus& corpus, std::vector<Op>* ops, Model* model);

// ---- Hashing ----

uint64_t HashBytes(const std::string& s, uint64_t h = 1469598103934665603ull);
uint64_t HashU64(uint64_t x, uint64_t h);
uint64_t HashKeys(const std::vector<std::string>& keys);
uint64_t HashKeys(const std::vector<QueryResult>& results);
/// Folds one answer's (key, seq) list into a running digest.
uint64_t FoldDigest(uint64_t digest, const std::vector<QueryResult>& results);

// ---- Process and disk ----

/// The process's high-water and current resident set size, in MB.
double PeakRssMb();
double RssMb();
/// Lowers the high-water RSS to the current RSS (Linux clear_refs).
void ResetPeakRss();
/// Bytes of every file of a SecondaryDB at `path` held by `env` (primary
/// and index tables, WAL and MANIFEST included).
uint64_t EnvFileBytes(leveldbpp::Env* env, const std::string& path);
uint64_t DirBytes(const std::string& path);
/// Bytes of the live tables (current version) of the primary and every
/// stand-alone index table: no WAL, MANIFEST or obsolete files that wait
/// for the next background job to delete them.
uint64_t LiveTableBytes(leveldbpp::SecondaryDB* db);
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);

/// Median of a small vector (copied).
double Median(std::vector<double> v);

/// Engine options shared by every workload: the paper's scaled-down LSM
/// geometry (1 MB memtable, 512 KB files, 4 MB L1), SimpleLZ blocks, no
/// block cache.
leveldbpp::SecondaryDBOptions StoreOptions(leveldbpp::IndexType type);

/// Wall time of every compaction, measured between its begin and end
/// events. At most one compaction runs per table at a time, so
/// begin events are matched by table name.
class JobClock : public leveldbpp::EventListener {
 public:
  void OnCompactionBegin(const leveldbpp::CompactionJobInfo& info) override;
  void OnCompactionEnd(const leveldbpp::CompactionJobInfo& info) override;
  int64_t compaction_ns() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, int64_t> begin_;
  int64_t compaction_ns_ = 0;
};

/// Storage writes and background work, summed over every table of a
/// SecondaryDB or a ShardedDB: WAL bytes, flush + compaction output bytes,
/// flush and compaction counts, compaction wall time, write stalls.
struct WriteCounters {
  uint64_t wal = 0, table = 0, flushes = 0, compactions = 0, stall_us = 0;
  int64_t compaction_ns = 0;

  template <typename Store>
  static WriteCounters Take(Store* db, const JobClock& clock) {
    WriteCounters w;
    w.wal = db->TotalTicker(leveldbpp::kWalBytesWritten);
    w.table = db->TotalTicker(leveldbpp::kCompactionBytesWritten);
    w.flushes = db->TotalTicker(leveldbpp::kFlushCount);
    w.compactions = db->TotalTicker(leveldbpp::kCompactionCount);
    w.stall_us = db->TotalTicker(leveldbpp::kWriteStallMicros) +
                 db->TotalTicker(leveldbpp::kWriteSlowdownMicros);
    w.compaction_ns = clock.compaction_ns();
    return w;
  }
  WriteCounters Minus(const WriteCounters& o) const {
    return {wal - o.wal,           table - o.table,
            flushes - o.flushes,   compactions - o.compactions,
            stall_us - o.stall_us, compaction_ns - o.compaction_ns};
  }
  WriteCounters& operator+=(const WriteCounters& o) {
    wal += o.wal;
    table += o.table;
    flushes += o.flushes;
    compactions += o.compactions;
    stall_us += o.stall_us;
    compaction_ns += o.compaction_ns;
    return *this;
  }
  bool operator==(const WriteCounters&) const = default;
  /// Storage bytes written per user byte written.
  double WriteAmp(uint64_t user_bytes) const {
    return user_bytes > 0 ? static_cast<double>(wal + table) / user_bytes : 0;
  }
};

/// The db.* write-side and wal.* per-layer metrics of a write window of
/// `puts` puts carrying `user_bytes` user bytes.
void AddWriteSideLayers(const WriteCounters& w, uint64_t puts,
                        uint64_t user_bytes, Report* r);

/// Per-class totals of the thread's PerfContext, one op at a time.
struct ClassTrace {
  uint64_t ops[kClasses] = {0, 0, 0, 0};
  uint64_t returned[kClasses] = {0, 0, 0, 0};  // query results returned
  leveldbpp::PerfContext sum[kClasses];
  void Add(Class c, const leveldbpp::PerfContext& pc, size_t results) {
    ops[c]++;
    returned[c] += results;
    sum[c].MergeFrom(pc);
  }
};

/// Adds the per-layer metrics every workload shares: JSON parse/extract,
/// compression and CRC over 4 KB blocks of the documents, and the
/// PerfContext per-class counters of `trace`.
void AddDocumentReplays(const std::vector<std::string>& docs, Report* r);
void AddClassTrace(const ClassTrace& trace, Report* r);
/// Posting-list parse/serialize over every value of every Lazy index table
/// of `db` (zero when it has none).
void AddPostingReplay(leveldbpp::SecondaryDB* db, Report* r);

/// The candidate keys LOOKUP(UserID, `value`) validates on `db`: the live
/// postings under `value` in its UserID index, appended to `keys`. Appends
/// nothing for an index without posting lists (Embedded).
void AppendLookupCandidates(leveldbpp::SecondaryDB* db,
                            const std::string& value,
                            std::vector<std::string>* keys);

/// db.get_us: p50 of DBImpl::Get for each of `get_keys`.
/// db.multiget_us_per_key: DBImpl::MultiGet over each list of
/// `lookup_keys` (one LOOKUP's candidates, split per table), total time /
/// keys. `table_of` names the primary table that holds a key.
void AddPointReadReplays(
    const std::vector<std::string>& get_keys,
    const std::vector<std::vector<std::string>>& lookup_keys,
    const std::function<leveldbpp::DBImpl*(const std::string&)>& table_of,
    Report* r);

/// Adds per-layer metric `name` with its unit from LayerMetrics().
void AddLayer(Report* r, const std::string& name, double value,
              bool counter = false);

/// Appends per-layer metrics that do not apply to this workload with value
/// 0, so every traced run reports the same metric set.
void FillMissingLayerMetrics(Report* r);

/// Per-layer metric dictionary: name and unit, in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

/// Per-class latency samples of a measured phase cut into kRounds rounds:
/// consecutive stretches by op index (served) or epochs (in-process).
constexpr int kRounds = 5;
struct Latencies {
  Samples round[kRounds][kClasses];

  /// Records op `i` of `n`.
  void Add(size_t i, size_t n, Class c, int64_t ns) {
    round[i * kRounds / n][c].Add(ns);
  }
  void Merge(const Latencies& other);
  Samples All(Class c) const;
};

/// <class>_p50_us over every sample of the class. <class>_p99_us is the
/// median of the rounds' p99s when `stationary`: a host burst inside one
/// round then does not decide the tail. Otherwise it is the p99 over every
/// sample, for tails too steep to rest on a fifth of the samples
/// (update-mix's LOOKUP). Logs each class's sample sizes, per-round p99s
/// and p50s to stderr.
void AddLatencyMetrics(const Latencies& lat, bool stationary, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
