// The two in-process workloads. Both run the paper's synchronous engine
// (no background compaction, sequential reads, no block cache) on one
// thread over the engine's in-memory Env, so every count they report
// repeats bit for bit for a seed and no file-system work enters a phase.
//
//   static-query  Lazy store, Put-loaded then fully compacted; the measured
//                 phase interleaves GET, LOOKUP(UserID) and
//                 RANGELOOKUP(CreationTime, 5 s), read-only.
//   update-mix    Embedded store, preloaded; the measured phase is the
//                 paper's update-heavy stream plus RANGELOOKUP(CreationTime,
//                 1 s).
//
// A run is kEpochs epochs, each with inputs of its own drawn from the run's
// seed: build a store (timed: setup_s and, for static-query, the load's put
// latencies), then run a fifth of the op list on it. Builds and op classes
// so sample the host's speed across the whole run rather than in one window
// of it, and each metric pools five draws of corpus and query arguments.
// An untimed memory pass on epoch 0's inputs comes first and measures
// peak_rss_mb. perfbench/README.md gives the reasons for the shares and
// windows.

#include <malloc.h>

#include <cstdio>
#include <thread>

#include "common.h"
#include "db/db_impl.h"
#include "env/env.h"

namespace perfbench {

using namespace leveldbpp;

namespace {

struct InprocShape {
  IndexType type;
  size_t preload;
  // Op-list length per second of --seconds: fixed, so a seed always yields
  // the same op list, and sized so that the phase lasts about that long.
  double ops_per_second;
  Mix mix;
  // True when the measured phase is read-only: write-side metrics (put
  // latency, write amplification, flush/compaction work) then describe
  // the load that built the store.
  bool write_metrics_from_load;
};

constexpr int kEpochs = kRounds;

// One epoch's inputs, all drawn before any clock starts.
struct Epoch {
  Corpus corpus;
  std::vector<Op> ops;
  uint64_t live_bytes = 0;  // the reference model's, after the ops
};

Report RunInproc(const RunSpec& spec, const InprocShape& shape) {
  Report report;
  const size_t preload =
      std::max<size_t>(1, static_cast<size_t>(shape.preload * spec.scale));
  const size_t n_ops = std::max<size_t>(
      kEpochs, static_cast<size_t>(spec.seconds * shape.ops_per_second *
                                   spec.scale));

  // The inputs are drawn on a thread of their own, which gives them and
  // the generator's freed temporaries another malloc arena than the
  // engine's. Drawn in the engine's arena, the freed reference models left
  // partly used pages that the engine then filled unseen, and its share of
  // the RSS varied by 25% between seeds.
  std::vector<Epoch> epochs(kEpochs);
  std::thread([&] {
    for (int e = 0; e < kEpochs; e++) {
      Epoch& ep = epochs[e];
      OpGenerator gen(HashU64(e, spec.seed));
      ep.corpus = gen.Preload(preload);
      std::vector<std::string> update_keys = ep.corpus.keys;
      std::vector<std::string> get_keys = ep.corpus.keys;
      ep.ops = gen.Ops(n_ops / kEpochs, shape.mix, &update_keys, &get_keys);
      Model model;
      PredictAnswers(ep.corpus, &ep.ops, &model);
      ep.live_bytes = model.live_bytes();
    }
  }).join();

  // Latency records are sized up front, so that the harness allocates
  // nothing while the engine runs.
  Latencies load;  // the load's puts, one round per epoch
  Latencies lat;   // the measured phase, one round per epoch
  for (int e = 0; e < kEpochs; e++) {
    load.round[e][kPutClass].Reserve(preload);
    size_t per_class[kClasses] = {0, 0, 0, 0};
    for (const Op& op : epochs[e].ops) per_class[ClassOf(op.kind)]++;
    for (int c = 0; c < kClasses; c++) lat.round[e][c].Reserve(per_class[c]);
  }

  auto clock = std::make_shared<JobClock>();
  SecondaryDBOptions options = StoreOptions(shape.type);
  options.base.listeners.push_back(clock);

  // Each build gets a fresh in-memory Env: on files, the host's disk
  // write-back and dirty-page throttling doubled the load's put p99 in
  // some runs.
  const std::string path = spec.data_dir + "/store";
  std::vector<QueryResult> results;
  std::string value;

  // Memory pass, untimed, on epoch 0's inputs: the engine's share of the
  // peak RSS is the growth of the high-water mark over one build and op
  // list, less the in-memory Env's files at the end, which stand in for
  // disk (page cache, not RSS, on a file system). It runs before the
  // timed epochs, on freshly trimmed memory; the timed epochs then reuse
  // the memory the allocator kept, so that their operations do not page-
  // fault (about 0.3 faults per op of update-mix on trimmed memory).
  double peak_rss_mb = 0;
  if (!spec.trace) {
    malloc_trim(0);
    const double base_rss_mb = RssMb();
    ResetPeakRss();
    std::unique_ptr<Env> env(NewMemEnv());
    options.base.env = env.get();
    std::unique_ptr<SecondaryDB> db;
    Status s = SecondaryDB::Open(options, path, &db);
    for (size_t i = 0; s.ok() && i < preload; i++) {
      s = db->Put(epochs[0].corpus.keys[i], epochs[0].corpus.docs[i]);
    }
    if (s.ok()) s = db->CompactAll();
    for (size_t i = 0; s.ok() && i < epochs[0].ops.size(); i++) {
      s = Execute(db.get(), epochs[0].ops[i], &value, &results);
      if (s.IsNotFound()) s = Status::OK();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "memory pass: %s\n", s.ToString().c_str());
      report.correct = false;
      return report;
    }
    peak_rss_mb = PeakRssMb() - base_rss_mb -
                  EnvFileBytes(env.get(), path) / 1048576.0;
  }

  std::vector<double> setup_s;
  ClassTrace trace;
  PerfContext* pc = spec.trace ? GetPerfContext() : nullptr;
  std::unique_ptr<Env> env;
  std::unique_ptr<SecondaryDB> db;
  WriteCounters load_writes, phase_writes;
  uint64_t load_puts = 0, load_user_bytes = 0;
  uint64_t phase_puts = 0, phase_user_bytes = 0;
  uint64_t table_bytes = 0, live_bytes = 0;
  size_t phase_ops = 0;
  double wall_s = 0;
  for (int e = 0; e < kEpochs; e++) {
    const Epoch& ep = epochs[e];
    const bool last = e + 1 == kEpochs;

    // Setup: open, Put-load, compact.
    db.reset();
    env.reset(NewMemEnv());
    options.base.env = env.get();
    const int64_t t0 = NowNs();
    Status s = SecondaryDB::Open(options, path, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", path.c_str(), s.ToString().c_str());
      report.correct = false;
      return report;
    }
    WriteCounters before = WriteCounters::Take(db.get(), *clock);
    for (size_t i = 0; i < preload; i++) {
      const int64_t t = NowNs();
      s = db->Put(ep.corpus.keys[i], ep.corpus.docs[i]);
      load.round[e][kPutClass].Add(NowNs() - t);
      if (!s.ok()) report.failed++;
    }
    report.attempted += preload;
    s = db->CompactAll();
    if (!s.ok()) report.failed++;
    setup_s.push_back((NowNs() - t0) / 1e9);
    load_writes += WriteCounters::Take(db.get(), *clock).Minus(before);
    load_puts += preload;
    load_user_bytes += ep.corpus.user_bytes;

    // Measured phase.
    if (pc != nullptr) EnablePerfContext();
    std::vector<std::string> get_keys_read;
    std::vector<std::string> lookup_values;
    before = WriteCounters::Take(db.get(), *clock);
    const int64_t start = NowNs();
    for (const Op& op : ep.ops) {
      const Class c = ClassOf(op.kind);
      if (pc != nullptr) pc->Reset();
      const int64_t t = NowNs();
      s = Execute(db.get(), op, &value, &results);
      lat.round[e][c].Add(NowNs() - t);
      if (pc != nullptr) trace.Add(c, *pc, results.size());
      if (!s.ok() && !(c == kGetClass && s.IsNotFound())) {
        report.failed++;
        continue;
      }
      switch (c) {
        case kPutClass:
          phase_puts++;
          phase_user_bytes += op.key.size() + op.doc.size();
          break;
        case kGetClass:
          if (!s.ok() || HashBytes(value) != op.expect) report.mismatches++;
          if (spec.trace && last) get_keys_read.push_back(op.key);
          break;
        case kLookupClass:
        case kRangeClass:
          if (HashKeys(results) != op.expect) report.mismatches++;
          report.digest = FoldDigest(report.digest, results);
          if (spec.trace && last && c == kLookupClass &&
              lookup_values.size() < 4000) {
            lookup_values.push_back(op.user);
          }
          break;
      }
    }
    wall_s += (NowNs() - start) / 1e9;
    if (pc != nullptr) DisablePerfContext();
    report.attempted += ep.ops.size();
    phase_ops += ep.ops.size();
    phase_writes += WriteCounters::Take(db.get(), *clock).Minus(before);
    table_bytes += LiveTableBytes(db.get());
    live_bytes += ep.live_bytes;

    if (spec.trace && last) {
      // Layer replays on the last epoch's store and inputs.
      AddPostingReplay(db.get(), &report);
      std::vector<std::string> docs = ep.corpus.docs;
      for (const Op& op : ep.ops) {
        if (!op.doc.empty()) docs.push_back(op.doc);
      }
      AddDocumentReplays(docs, &report);

      // Storage-engine point reads on the primary table, outside the
      // secondary layer.
      std::vector<std::vector<std::string>> lookup_keys(lookup_values.size());
      for (size_t i = 0; i < lookup_values.size(); i++) {
        AppendLookupCandidates(db.get(), lookup_values[i], &lookup_keys[i]);
      }
      DBImpl* primary = db->primary();
      AddPointReadReplays(get_keys_read, lookup_keys,
                          [primary](const std::string&) { return primary; },
                          &report);
    }
  }

  const bool from_load = shape.write_metrics_from_load;
  const WriteCounters& writes = from_load ? load_writes : phase_writes;
  const uint64_t puts = from_load ? load_puts : phase_puts;
  const uint64_t user_bytes = from_load ? load_user_bytes : phase_user_bytes;
  if (!spec.trace) {
    if (from_load) {
      for (int i = 0; i < kRounds; i++) {
        lat.round[i][kPutClass] = std::move(load.round[i][kPutClass]);
      }
    }
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ops_per_s", phase_ops / wall_s, "1/s");
    AddLatencyMetrics(lat, /*stationary=*/from_load, &report);
    report.Add("write_amp", writes.WriteAmp(user_bytes), "ratio", true);
    report.Add("space_amp", static_cast<double>(table_bytes) / live_bytes,
               "ratio", true);
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    AddClassTrace(trace, &report);
    AddWriteSideLayers(writes, puts, user_bytes, &report);
    FillMissingLayerMetrics(&report);
  }
  std::fprintf(stderr,
               "%s: %d epochs of %zu preload, %zu ops (%zu put, %zu get, "
               "%zu lookup, %zu range) in %.2f s\n",
               spec.workload.c_str(), kEpochs, preload, phase_ops,
               lat.All(kPutClass).size(), lat.All(kGetClass).size(),
               lat.All(kLookupClass).size(), lat.All(kRangeClass).size(),
               wall_s);
  db.reset();
  report.correct = report.correct && report.mismatches == 0;
  return report;
}

}  // namespace

Report RunStaticQuery(const RunSpec& spec) {
  InprocShape shape;
  shape.type = IndexType::kLazy;
  shape.preload = 40000;
  shape.ops_per_second = 10500;
  shape.mix.share[static_cast<int>(Kind::kGet)] = 0.875;
  shape.mix.share[static_cast<int>(Kind::kLookup)] = 0.065;
  shape.mix.share[static_cast<int>(Kind::kRange)] = 0.06;
  shape.mix.range_seconds = 5;
  shape.write_metrics_from_load = true;
  return RunInproc(spec, shape);
}

Report RunUpdateMix(const RunSpec& spec) {
  InprocShape shape;
  shape.type = IndexType::kEmbedded;
  shape.preload = 40000;
  shape.ops_per_second = 12000;
  shape.mix.share[static_cast<int>(Kind::kPut)] = 0.40;
  shape.mix.share[static_cast<int>(Kind::kUpdate)] = 0.35;
  shape.mix.share[static_cast<int>(Kind::kGet)] = 0.15;
  shape.mix.share[static_cast<int>(Kind::kLookup)] = 0.05;
  shape.mix.share[static_cast<int>(Kind::kRange)] = 0.05;
  shape.mix.range_seconds = 1;
  shape.write_metrics_from_load = false;
  return RunInproc(spec, shape);
}

}  // namespace perfbench
