// Early exit of posting-list decoding: a top-K LOOKUP over a long list
// decodes O(K) entries, not the whole list, and still answers exactly what
// a full decode answers.
//
//   1. A ~4 000-entry list (Lazy: one fragment after CompactAll; Eager: one
//      list) — LOOKUP(K=10) stays under a small perf.posting.entries.scanned
//      bound, its answer equals the first K of the unlimited (full-decode)
//      answer at read_parallelism 0 and 4, and the named counters agree
//      across both settings.
//   2. A crash-stale posting (stored seq above the validated seq) makes a
//      Lazy RangeLookup descend past a list it cut, so an older occurrence
//      of a cut key reaches validation; the answer stays exact.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/posting_list.h"
#include "core/secondary_db.h"
#include "core/standalone_index.h"
#include "crash_harness.h"
#include "env/env.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace {

using crash::UserDoc;

constexpr int kListEntries = 4000;
constexpr size_t kK = 10;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

std::string Ts(uint64_t t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(t));
  return buf;
}

struct Counters {
  uint64_t entries = 0;
  uint64_t records = 0;
  uint64_t validated = 0;
  uint64_t valid = 0;

  bool operator==(const Counters& o) const {
    return entries == o.entries && records == o.records &&
           validated == o.validated && valid == o.valid;
  }
};

// Run `query` with a freshly reset PerfContext.
Counters Measure(const std::function<void()>& query) {
  PerfContext* perf = GetPerfContext();
  EnablePerfContext();
  perf->Reset();
  query();
  DisablePerfContext();
  return Counters{perf->posting_entries_scanned,
                  perf->candidate_records_scanned,
                  perf->candidates_validated, perf->candidates_valid};
}

void ExpectPrefixOf(const std::vector<QueryResult>& full, size_t k,
                    const std::vector<QueryResult>& got,
                    const std::string& what) {
  ASSERT_EQ(std::min(k, full.size()), got.size()) << what;
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(full[i].primary_key, got[i].primary_key) << what << " [" << i;
    EXPECT_EQ(full[i].seq, got[i].seq) << what << " [" << i;
    EXPECT_EQ(full[i].value, got[i].value) << what << " [" << i;
  }
}

class PostingEarlyExitTest : public testing::TestWithParam<IndexType> {
 protected:
  PostingEarlyExitTest() : env_(NewMemEnv()) {}
  ~PostingEarlyExitTest() override { DisablePerfContext(); }

  void Open(int read_parallelism) {
    db_.reset();
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.read_parallelism = read_parallelism;
    options.index_type = GetParam();
    options.indexed_attributes = {"UserID", "CreationTime"};
    Status s = SecondaryDB::Open(options, "/early", &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // kListEntries docs of user "hot", some other users' docs, then the 50
  // oldest hot docs move away (stale postings at the list's old end for
  // Lazy), all compacted.
  void Load() {
    uint64_t ts = 1;
    for (int i = 0; i < kListEntries; i++) {
      ASSERT_TRUE(db_->Put(Key(i), UserDoc("hot", ts++, 32)).ok());
    }
    for (int i = kListEntries; i < kListEntries + 400; i++) {
      ASSERT_TRUE(
          db_->Put(Key(i), UserDoc("u" + std::to_string(i % 20), ts++, 32))
              .ok());
    }
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db_->Put(Key(i), UserDoc("moved", ts++, 32)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<SecondaryDB> db_;
};

TEST_P(PostingEarlyExitTest, TopKLookupDecodesOrderKEntries) {
  Open(0);
  Load();
  if (GetParam() == IndexType::kLazy) {
    // Precondition: the whole list is one fragment.
    auto* index = dynamic_cast<StandAloneIndex*>(db_->index("UserID"));
    ASSERT_NE(nullptr, index);
    int fragments = 0;
    ASSERT_TRUE(index->index_db()
                    ->GetFragments(ReadOptions(), "hot",
                                   [&](int, SequenceNumber, bool,
                                       const Slice& fragment) {
                                     fragments++;
                                     EXPECT_EQ(kListEntries,
                                               PostingList::EntryCount(
                                                   fragment));
                                     return true;
                                   })
                    .ok());
    ASSERT_EQ(1, fragments);
  }

  Counters at_p0;
  for (int p : {0, 4}) {
    SCOPED_TRACE("read_parallelism " + std::to_string(p));
    Open(p);
    std::vector<QueryResult> full, top;
    const Counters full_counters = Measure([&] {
      ASSERT_TRUE(db_->Lookup("UserID", "hot", 0, &full).ok());
    });
    ASSERT_EQ(static_cast<size_t>(kListEntries - 50), full.size());
    EXPECT_GE(full_counters.entries, full.size());  // Decoded it all

    const Counters c = Measure([&] {
      ASSERT_TRUE(db_->Lookup("UserID", "hot", kK, &top).ok());
    });
    ExpectPrefixOf(full, kK, top, "Lookup(hot, 10)");
    EXPECT_GT(c.entries, kK);
    EXPECT_LE(c.entries, 2 * kK) << "decoded past O(K) entries";
    if (p == 0) {
      at_p0 = c;
    } else {
      EXPECT_TRUE(at_p0 == c)
          << "entries " << at_p0.entries << " vs " << c.entries
          << ", validated " << at_p0.validated << " vs " << c.validated;
    }

    // RangeLookup: top-K over a window equals the unlimited answer's head.
    std::vector<QueryResult> range_full, range_top;
    ASSERT_TRUE(db_->RangeLookup("CreationTime", Ts(1000), Ts(3000), 0,
                                 &range_full)
                    .ok());
    ASSERT_TRUE(db_->RangeLookup("CreationTime", Ts(1000), Ts(3000), kK,
                                 &range_top)
                    .ok());
    ExpectPrefixOf(range_full, kK, range_top, "RangeLookup(CreationTime)");
  }
}

INSTANTIATE_TEST_SUITE_P(LazyAndEager, PostingEarlyExitTest,
                         testing::Values(IndexType::kLazy, IndexType::kEager),
                         [](const testing::TestParamInfo<IndexType>& info) {
                           return info.param == IndexType::kLazy ? "Lazy"
                                                                 : "Eager";
                         });

// Lazy RangeLookup over [ua, ub], K = 2, with two crash-stale postings (a
// fragment written ahead of a primary put that never committed, so its
// stored seq is one the primary never assigned):
//
//   memtable   ua: (p2, a+2) (p1, a+1) | (x, a)    <- cut: heap floor a+1
//              ub: (q, T)  T stale      -> validates at b != T: the walk
//                                          must descend past the cut list
//   lower      ua: (x, S)  S stale      -> x is missing from `seen`, so this
//                                          older occurrence is validated
//              ub: (q, b)
//
// The answer must still be exactly the primary's newest two in range.
TEST(PostingEarlyExit, LazyRangeLookupDescendsPastCutListOnStaleEntry) {
  std::unique_ptr<Env> env(NewMemEnv());
  for (int p : {0, 4}) {
    SCOPED_TRACE("read_parallelism " + std::to_string(p));
    SecondaryDBOptions options = crash::MakeCrashOptions(env.get(),
                                                         IndexType::kLazy);
    options.base.read_parallelism = p;
    std::unique_ptr<SecondaryDB> db;
    const std::string path = "/stale" + std::to_string(p);
    ASSERT_TRUE(SecondaryDB::Open(options, path, &db).ok());
    DBImpl* index_table =
        dynamic_cast<StandAloneIndex*>(db->index("UserID"))->index_db();
    auto inject = [&](const std::string& user, const std::string& key,
                      SequenceNumber stored_seq) {
      std::string fragment;
      PostingList::Serialize({PostingEntry(key, stored_seq)}, &fragment);
      ASSERT_TRUE(index_table->Put(WriteOptions(), user, fragment).ok());
    };

    ASSERT_TRUE(db->Put("x", UserDoc("ua", 1)).ok());
    ASSERT_TRUE(db->Put("q", UserDoc("ub", 2)).ok());
    const SequenceNumber b = db->primary()->LastSequence();
    inject("ua", "x", b + 1000);  // Crash-stale: seq S never committed
    ASSERT_TRUE(db->CompactAll().ok());

    ASSERT_TRUE(db->Put("x", UserDoc("ua", 3)).ok());
    const SequenceNumber a = db->primary()->LastSequence();
    ASSERT_TRUE(db->Put("p1", UserDoc("ua", 4)).ok());
    ASSERT_TRUE(db->Put("p2", UserDoc("ua", 5)).ok());
    inject("ub", "q", b + 2000);  // Crash-stale: seq T never committed

    std::vector<QueryResult> full, top;
    ASSERT_TRUE(db->RangeLookup("UserID", "ua", "ub", 0, &full).ok());
    ASSERT_EQ(4u, full.size());
    EXPECT_EQ("p2", full[0].primary_key);
    EXPECT_EQ(a, full[2].seq);  // x, validated at its committed seq
    EXPECT_EQ(b, full[3].seq);  // q

    const Counters c = Measure([&] {
      ASSERT_TRUE(db->RangeLookup("UserID", "ua", "ub", 2, &top).ok());
    });
    ExpectPrefixOf(full, 2, top, "RangeLookup(ua..ub, 2)");
    if (p == 0) {
      // p2, p1 and q from the memtable, then x from the lower level: the
      // cut left x out of `seen`, and the stale q kept the walk going.
      EXPECT_EQ(4u, c.validated);
    }
    for (size_t k : {size_t{1}, size_t{3}, size_t{4}}) {
      ASSERT_TRUE(db->RangeLookup("UserID", "ua", "ub", k, &top).ok());
      ExpectPrefixOf(full, k, top, "RangeLookup k=" + std::to_string(k));
    }
    crash::VerifyIndexesMatchPrimary(db.get(), {"x", "q", "p1", "p2"},
                                     {"ua", "ub"}, "stale-cut");
  }
}

}  // namespace
}  // namespace leveldbpp
