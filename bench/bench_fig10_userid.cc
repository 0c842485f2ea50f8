// Figure 10 — query latency on the non-time-correlated UserID index
// (Static workload, box-and-whisker quartiles like the paper):
//   10a: LOOKUP(UserID) for top-K in {5, 50, no-limit},
//   10b: RANGELOOKUP(UserID) at low selectivity (a few users) x top-K,
//   10c: RANGELOOKUP(UserID) at higher selectivity x top-K.
//
// Eager is included only with --include-eager (the paper drops it here
// after Figure 9 shows it is unusable to build at scale).
//
// Usage: bench_fig10_userid [--n=60000] [--queries=200] [--include-eager]
//                           [--json]
// --json prints one JSON line per cell instead of the box plots: p50/p99
// and, for NoIndex (every query scans the whole store), the cost per
// scanned record.

#include <unistd.h>

#include "harness.h"

namespace leveldbpp {
namespace bench {
namespace {

void ReportCell(bool json, const char* query, size_t k, IndexType type,
                uint64_t n, const Histogram& hist) {
  if (!json) {
    PrintBoxPlotRow(Name(type), hist);
    return;
  }
  JsonLine line("fig10_userid");
  line.Str("query", query)
      .Int("k", k)
      .Str("variant", Name(type))
      .Int("n", n)
      .Int("queries", hist.Count())
      .Double("p50_us", hist.Median())
      .Double("p99_us", hist.Percentile(99));
  if (type == IndexType::kNoIndex) {
    line.Double("ns_per_record", hist.Median() * 1000.0 / n);
  }
  line.Emit();
}

void Run(const Flags& flags) {
  const uint64_t n = flags.GetInt("n", 60000);
  const uint64_t queries = flags.GetInt("queries", 200);
  const bool include_eager = flags.GetBool("include-eager", false);
  const bool json = flags.GetBool("json", false);
  const std::string root = ScratchRoot();

  if (!json) {
    PrintHeader("Figure 10 — UserID (non-time-correlated) query latency");
    printf("n=%" PRIu64 " tweets, %" PRIu64 " queries per cell\n", n,
           queries);
  }

  std::vector<IndexType> variants = VariantsWithoutEager();
  if (include_eager) variants.push_back(IndexType::kEager);

  // Build each variant once (Static: all inserts, then CompactAll).
  std::vector<std::unique_ptr<SecondaryDB>> dbs;
  for (IndexType type : variants) {
    if (!json) printf("[build] %s...\n", Name(type));
    VariantConfig config;
    config.type = type;
    auto db = OpenVariant(config, root + "/" + Name(type));
    WorkloadGenerator gen(TweetGeneratorOptions{}, 11);
    std::vector<QueryResult> scratch;
    for (uint64_t i = 0; i < n; i++) {
      CheckOk(Apply(db.get(), gen.NextPut(), &scratch), "put");
    }
    // NOTE: no forced full compaction — the paper's Static workload inserts
    // and then queries the naturally-settled LSM, which is what leaves Lazy
    // posting fragments distributed across levels (the source of its
    // small-top-K advantage).
    dbs.push_back(std::move(db));
  }

  const std::vector<size_t> topks = {5, 50, 0};
  auto TopkName = [](size_t k) {
    return k == 0 ? std::string("NoLimit") : "K=" + std::to_string(k);
  };

  if (!json) printf("\nFig 10a — LOOKUP(UserID) latency\n");
  for (size_t k : topks) {
    if (!json) printf(" top-%s\n", TopkName(k).c_str());
    for (size_t v = 0; v < variants.size(); v++) {
      WorkloadGenerator qgen(TweetGeneratorOptions{}, 11);
      for (uint64_t i = 0; i < n; i++) qgen.NextPut();  // Prime sampler
      Histogram hist;
      std::vector<QueryResult> scratch;
      for (uint64_t q = 0; q < queries; q++) {
        Operation op = qgen.NextUserLookup(k);
        Timer t;
        CheckOk(Apply(dbs[v].get(), op, &scratch), "lookup");
        hist.Add(static_cast<double>(t.ElapsedMicros()));
      }
      ReportCell(json, "lookup", k, variants[v], n, hist);
    }
  }

  for (uint64_t selectivity : {10ull, 100ull}) {
    if (!json) {
      printf("\nFig 10%c — RANGELOOKUP(UserID) latency, selectivity = "
             "%" PRIu64 " users\n",
             selectivity == 10 ? 'b' : 'c', selectivity);
    }
    const std::string query =
        "rangelookup_" + std::to_string(selectivity) + "_users";
    for (size_t k : topks) {
      if (!json) printf(" top-%s\n", TopkName(k).c_str());
      for (size_t v = 0; v < variants.size(); v++) {
        WorkloadGenerator qgen(TweetGeneratorOptions{}, 11);
        for (uint64_t i = 0; i < n; i++) qgen.NextPut();
        Histogram hist;
        std::vector<QueryResult> scratch;
        // Range scans cost more; cap the per-cell query count.
        uint64_t nq = std::max<uint64_t>(queries / 4, 10);
        for (uint64_t q = 0; q < nq; q++) {
          Operation op = qgen.NextUserRangeLookup(selectivity, k);
          Timer t;
          CheckOk(Apply(dbs[v].get(), op, &scratch), "rangelookup");
          hist.Add(static_cast<double>(t.ElapsedMicros()));
        }
        ReportCell(json, query.c_str(), k, variants[v], n, hist);
      }
    }
  }

  if (json) return;
  printf("\nExpected shapes (paper): Lazy best for small top-K; Composite "
         "best for\nno-limit; Embedded trails the stand-alone indexes on "
         "this non-time-correlated\nattribute (zone maps prune little; "
         "RANGELOOKUP ~= NoIndex).\n");
}

}  // namespace
}  // namespace bench
}  // namespace leveldbpp

int main(int argc, char** argv) {
  leveldbpp::bench::Flags flags(argc, argv);
  leveldbpp::bench::Run(flags);
  return 0;
}
