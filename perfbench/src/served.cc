// The served workload: a Composite store on ShardedDB (2 shards, background
// compaction on, as the server runs it) behind the loopback protocol
// Server, driven by 2 closed-loop client connections with a read-mostly
// mix. The process runs on 2 CPUs and queries the shards inline, so the
// 2 connections never oversubscribe them and the measured tail is the
// serving path.
//
// It is the only workload whose ops cross wire encode/decode, a socket
// round trip and the shard fan-out/merge.

#include <sched.h>

#include <cstdio>
#include <latch>
#include <thread>

#include "common.h"
#include "db/db_impl.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/sharded_db.h"
#include "serve/wire.h"

namespace perfbench {

using namespace leveldbpp;

namespace {

constexpr int kConns = 2;
constexpr int kShards = 2;
constexpr size_t kPreload = 40000;
// Op-list length per second of --seconds, over all connections.
constexpr double kOpsPerSecond = 7000;
// Untimed reads per connection before the measured phase.
constexpr size_t kWarmupReads = 2000;
// Ops of connection 0 replayed in-process by the traced run.
constexpr size_t kTracedOps = 8000;

// RANGELOOKUPs get 10% and a 5 s window: at 5% with 60 s windows each
// round's p99 rested on 13 samples, and its spread over 10 seeds reached
// 0.28.
Mix ServedMix() {
  Mix m;
  m.share[static_cast<int>(Kind::kPut)] = 0.10;
  m.share[static_cast<int>(Kind::kUpdate)] = 0.10;
  m.share[static_cast<int>(Kind::kGet)] = 0.35;
  m.share[static_cast<int>(Kind::kLookup)] = 0.35;
  m.share[static_cast<int>(Kind::kRange)] = 0.10;
  m.range_seconds = 5;
  return m;
}

struct ConnResult {
  Latencies lat;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t put_bytes = 0;
  int64_t end_ns = 0;
};

/// Runs each connection's op list on its own thread through the callable
/// `connect(connection)` returns; returns wall seconds from the moment every
/// connection is ready. Before that, each connection runs the first
/// kWarmupReads reads of its list untimed: without it, the first rounds'
/// p99s were up to 3x the later rounds'. Reads leave the store as it was,
/// so every op of the list still runs once, in order.
template <typename Connect>
double RunConnections(const std::vector<std::vector<Op>>& ops,
                      const Connect& connect, ConnResult* out) {
  std::latch ready(kConns + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; c++) {
    threads.emplace_back([&, c] {
      auto call = connect(c);
      ConnResult& r = out[c];
      std::string value;
      std::vector<QueryResult> warm;
      size_t warmed = 0;
      for (const Op& op : ops[c]) {
        if (warmed == kWarmupReads) break;
        if (ClassOf(op.kind) == kPutClass) continue;
        call(op, &value, &warm);
        warmed++;
      }
      ready.arrive_and_wait();
      std::vector<QueryResult> results;
      const size_t n = ops[c].size();
      for (size_t i = 0; i < n; i++) {
        const Op& op = ops[c][i];
        const Class cls = ClassOf(op.kind);
        const int64_t t = NowNs();
        Status s = call(op, &value, &results);
        r.lat.Add(i, n, cls, NowNs() - t);
        if (cls == kGetClass && s.IsNotFound()) {
          r.mismatches++;  // every GET targets a key that exists
        } else if (!s.ok()) {
          r.failed++;
        } else if (cls == kPutClass) {
          r.put_bytes += op.key.size() + op.doc.size();
        }
      }
      r.end_ns = NowNs();
    });
  }
  ready.arrive_and_wait();
  const int64_t start = NowNs();
  for (std::thread& t : threads) t.join();
  int64_t end = start;
  for (int c = 0; c < kConns; c++) end = std::max(end, out[c].end_ns);
  return (end - start) / 1e9;
}

/// Waits until background flushes and compactions have finished: no
/// immutable memtable queued on any shard, and counters and on-disk bytes
/// unchanged over three 100 ms intervals (compaction tickers only move when
/// a compaction ends, the files while it runs). Gives up after ~20 s.
WriteCounters Settle(ShardedDB* db, const JobClock& clock,
                     const std::string& path) {
  WriteCounters prev = WriteCounters::Take(db, clock);
  uint64_t prev_disk = DirBytes(path);
  int quiet = 0;
  for (int i = 0; i < 200 && quiet < 3; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const WriteCounters cur = WriteCounters::Take(db, clock);
    const uint64_t disk = DirBytes(path);
    bool flushed = true;
    for (const auto& h : db->ShardHealth()) {
      flushed = flushed && h.imm_queue_depth == 0;
    }
    quiet = cur == prev && disk == prev_disk && flushed ? quiet + 1 : 0;
    prev = cur;
    prev_disk = disk;
  }
  return prev;
}

bool SameResults(const std::vector<QueryResult>& a,
                 const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].primary_key != b[i].primary_key || a[i].seq != b[i].seq ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

wire::Request RequestFor(const Op& op) {
  wire::Request req;
  switch (op.kind) {
    case Kind::kPut:
    case Kind::kUpdate:
      req.op = wire::kPut;
      req.key = op.key;
      req.value = op.doc;
      break;
    case Kind::kGet:
      req.op = wire::kGet;
      req.key = op.key;
      break;
    case Kind::kLookup:
      req.op = wire::kLookup;
      req.attribute = kUserAttr;
      req.value = op.user;
      req.k = kTopK;
      break;
    case Kind::kRange:
      req.op = wire::kRangeLookup;
      req.attribute = kTimeAttr;
      req.lo = op.lo;
      req.hi = op.hi;
      req.k = kTopK;
      break;
  }
  return req;
}

/// An encoded frame without its length header.
Slice FramePayload(const std::string& frame) {
  return Slice(frame.data() + wire::kHeaderBytes,
               frame.size() - wire::kHeaderBytes);
}

/// Restricts this thread, and every thread it starts later, to the first
/// two CPUs it may run on; restores the previous mask on destruction. A
/// closed-loop connection's client and server threads take turns, so two
/// CPUs carry two connections. Spread over four vCPUs, each request woke a
/// thread on an idle vCPU: put/get p50s were 30-50% higher and p99s
/// varied 2-5x between runs.
class PinToTwoCpus {
 public:
  PinToTwoCpus() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t two;
    CPU_ZERO(&two);
    int picked = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && picked < 2; cpu++) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &two);
        picked++;
      }
    }
    pinned_ = picked == 2 && sched_setaffinity(0, sizeof(two), &two) == 0;
  }
  ~PinToTwoCpus() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToTwoCpus(const PinToTwoCpus&) = delete;
  PinToTwoCpus& operator=(const PinToTwoCpus&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace

Report RunServed(const RunSpec& spec) {
  PinToTwoCpus pin;
  Report report;
  const size_t preload =
      std::max<size_t>(1, static_cast<size_t>(kPreload * spec.scale));
  const size_t per_conn = std::max<size_t>(
      1, static_cast<size_t>(spec.seconds * kOpsPerSecond / kConns *
                             spec.scale));

  // Inputs, before any clock starts. Each connection updates only its own
  // half of the keys and its own new keys, so the final store does not
  // depend on how the connections interleave.
  OpGenerator gen(spec.seed);
  Corpus corpus = gen.Preload(preload);
  std::vector<std::vector<Op>> ops(kConns);
  std::vector<std::string> update_keys[kConns];
  for (size_t i = 0; i < preload; i++) {
    update_keys[i % kConns].push_back(corpus.keys[i]);
  }
  for (int c = 0; c < kConns; c++) {
    std::vector<std::string> get_keys = corpus.keys;
    ops[c] = gen.Ops(per_conn, ServedMix(), &update_keys[c], &get_keys);
  }
  Model final_state;
  for (size_t i = 0; i < preload; i++) {
    final_state.Put(corpus.keys[i], corpus.docs[i], corpus.users[i],
                    corpus.ctimes[i]);
  }
  for (const auto& list : ops) {
    for (const Op& op : list) {
      if (ClassOf(op.kind) == kPutClass) {
        final_state.Put(op.key, op.doc, op.user, op.lo);
      }
    }
  }

  const std::string path = spec.data_dir + "/served";
  auto clock = std::make_shared<JobClock>();
  ShardedDBOptions options;
  options.shard = StoreOptions(IndexType::kComposite);
  options.shard.base.background_compaction = true;
  options.shard.base.listeners.push_back(clock);
  options.num_shards = kShards;
  // Shards are queried one after another on the connection's handler
  // thread, which the 2 CPUs (see PinToTwoCpus) can carry.
  options.fanout_parallelism = 1;

  // Everything the harness holds for the run is resident by now: the
  // engine's and server's share of the peak RSS is measured from here.
  const double base_rss_mb = RssMb();

  // Setup: preload in-process and compact before the server starts;
  // repeated, reported as the median, last build kept. A build takes about
  // half a second and background compaction makes it jittery, hence five.
  // Each build replaces the previous one before its dirty pages are written
  // back.
  std::vector<double> setup_s;
  std::unique_ptr<ShardedDB> db;
  auto build = [&]() {
    db.reset();
    RemoveTree(path);
    const int64_t t0 = NowNs();
    Status s = ShardedDB::Open(options, path, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", path.c_str(), s.ToString().c_str());
      return false;
    }
    for (size_t i = 0; i < preload; i++) {
      if (!db->Put(corpus.keys[i], corpus.docs[i]).ok()) report.failed++;
    }
    report.attempted += preload;
    if (!db->CompactAll().ok()) report.failed++;
    setup_s.push_back((NowNs() - t0) / 1e9);
    return true;
  };
  const int reps = spec.trace ? 1 : 5;
  for (int rep = 0; rep < reps; rep++) {
    if (!build()) {
      report.correct = false;
      return report;
    }
  }

  // Traced run, first half: the same op lists in-process on ShardedDB from
  // the same number of threads, on a store built exactly like the served
  // one, which is then rebuilt for the served phase. The difference of the
  // two p50s is the serving tax.
  Latencies direct_lat;
  if (spec.trace) {
    ConnResult direct[kConns];
    ShardedDB* raw = db.get();
    RunConnections(
        ops,
        [raw](int) {
          return [raw](const Op& op, std::string* value,
                       std::vector<QueryResult>* results) {
            return Execute(raw, op, value, results);
          };
        },
        direct);
    for (int c = 0; c < kConns; c++) {
      direct_lat.Merge(direct[c].lat);
      report.failed += direct[c].failed;
      report.mismatches += direct[c].mismatches;
      report.attempted += ops[c].size();
    }
    if (!build()) {
      report.correct = false;
      return report;
    }
  }


  std::unique_ptr<Server> server;
  Status s = Server::Start(db.get(), ServerOptions(), &server);
  if (!s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    report.correct = false;
    return report;
  }
  const int port = server->port();
  auto connect = [port](int) {
    std::shared_ptr<Client> client;
    {
      std::unique_ptr<Client> c;
      if (!Client::Connect("127.0.0.1", port, &c).ok()) c.reset();
      client = std::move(c);
    }
    return [client](const Op& op, std::string* value,
                    std::vector<QueryResult>* results) {
      if (client == nullptr) return Status::IOError("connect failed");
      return Execute(client.get(), op, value, results);
    };
  };

  Statistics* frontend = db->statistics();
  const StatsSnapshot front_before = StatsSnapshot::Take(*frontend);
  const WriteCounters before = WriteCounters::Take(db.get(), *clock);
  ConnResult conn[kConns];
  const double wall_s = RunConnections(ops, connect, conn);
  const StatsSnapshot front_after = StatsSnapshot::Take(*frontend);
  const WriteCounters writes = Settle(db.get(), *clock, path).Minus(before);
  uint64_t table_bytes = 0;
  for (int i = 0; i < kShards; i++) table_bytes += LiveTableBytes(db->shard(i));

  Latencies lat;
  uint64_t phase_puts = 0, phase_user_bytes = 0;
  for (int c = 0; c < kConns; c++) {
    lat.Merge(conn[c].lat);
    report.failed += conn[c].failed;
    report.mismatches += conn[c].mismatches;
    phase_user_bytes += conn[c].put_bytes;
    report.attempted += ops[c].size();
  }
  phase_puts = lat.All(kPutClass).size();

  // Answer check: a read-only sample of the op lists over the wire must
  // return exactly what ShardedDB returns in-process.
  {
    std::unique_ptr<Client> client;
    if (!Client::Connect("127.0.0.1", port, &client).ok()) {
      report.mismatches++;
    } else {
      std::string wv, dv;
      std::vector<QueryResult> wr, dr;
      size_t checked = 0;
      for (const auto& list : ops) {
        for (size_t i = 0; i < list.size() && checked < 1000; i += 8) {
          const Op& op = list[i];
          if (ClassOf(op.kind) == kPutClass) continue;
          wv.clear();
          dv.clear();
          Status ws = Execute(client.get(), op, &wv, &wr);
          Status ds = Execute(db.get(), op, &dv, &dr);
          checked++;
          if (ws.ok() != ds.ok() || wv != dv || !SameResults(wr, dr)) {
            report.mismatches++;
          }
          report.digest = FoldDigest(report.digest, dr);
        }
      }
    }
  }
  server->Stop();

  const double space_amp =
      static_cast<double>(table_bytes) / final_state.live_bytes();
  if (!spec.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ops_per_s", (ops[0].size() + ops[1].size()) / wall_s, "1/s");
    AddLatencyMetrics(lat, /*stationary=*/true, &report);
    report.Add("write_amp", writes.WriteAmp(phase_user_bytes), "ratio");
    report.Add("space_amp", space_amp, "ratio");
    report.Add("peak_rss_mb", PeakRssMb() - base_rss_mb, "MB");
  } else {
    // Served-phase counters, summed over the shards' Statistics (the work
    // ran on server and background threads, out of PerfContext's reach).
    const uint64_t requests = front_after.Delta(front_before, kServeRequests);
    const uint64_t wire_bytes =
        front_after.Delta(front_before, kServeBytesRead) +
        front_after.Delta(front_before, kServeBytesWritten);
    AddLayer(&report, "serve.bytes_per_op",
             requests > 0 ? static_cast<double>(wire_bytes) / requests : 0,
             true);
    const uint64_t fanouts =
        front_after.Delta(front_before, kShardLookupFanouts);
    const uint64_t candidates =
        front_after.Delta(front_before, kShardMergeCandidates);
    AddLayer(&report, "serve.merge_candidates_per_lookup",
             fanouts > 0 ? static_cast<double>(candidates) / fanouts : 0);
    AddLayer(&report, "serve.write_stall_ms", writes.stall_us / 1e3);
    AddWriteSideLayers(writes, phase_puts, phase_user_bytes, &report);

    ShardedDB* raw = db.get();
    for (Class k : {kGetClass, kLookupClass, kPutClass}) {
      AddLayer(&report, std::string("serve.tax_us.") + kClassNames[k],
               lat.All(k).PercentileUs(50) -
                   direct_lat.All(k).PercentileUs(50));
    }

    // Per-class engine counters: the first kTracedOps ops of connection 0
    // replayed on this thread with PerfContext on (fan-out tasks merge back
    // into it); their requests and answers also feed the wire replay.
    const std::vector<Op> traced(
        ops[0].begin(), ops[0].begin() + std::min(ops[0].size(), kTracedOps));
    ClassTrace trace;
    EnablePerfContext();
    PerfContext* pc = GetPerfContext();
    std::string value;
    std::vector<QueryResult> results;
    std::vector<std::vector<std::string>> lookup_keys;
    std::vector<wire::Request> reqs;
    std::vector<wire::Response> resps;
    for (const Op& op : traced) {
      reqs.push_back(RequestFor(op));
      resps.emplace_back();
      const Class cls = ClassOf(op.kind);
      if (cls == kPutClass) continue;
      pc->Reset();
      if (!Execute(raw, op, &value, &results).ok()) report.mismatches++;
      trace.Add(cls, *pc, results.size());
      if (cls == kGetClass) {
        resps.back().payload = value;
      } else {
        resps.back().results = results;
      }
      if (cls == kLookupClass) {
        lookup_keys.emplace_back();
        for (int i = 0; i < kShards; i++) {
          AppendLookupCandidates(raw->shard(i), op.user, &lookup_keys.back());
        }
      }
    }
    DisablePerfContext();
    AddClassTrace(trace, &report);

    // One shard's share of a fan-out LOOKUP, and storage point reads.
    Samples shard_lookup;
    std::vector<std::string> get_keys;
    for (const Op& op : traced) {
      if (op.kind == Kind::kLookup) {
        for (int i = 0; i < kShards; i++) {
          const int64_t t = NowNs();
          raw->shard(i)->Lookup(kUserAttr, op.user, kTopK, &results);
          shard_lookup.Add(NowNs() - t);
        }
      } else if (op.kind == Kind::kGet) {
        get_keys.push_back(op.key);
      }
    }
    AddLayer(&report, "serve.shard_lookup_us",
             shard_lookup.PercentileUs(50));
    AddPointReadReplays(get_keys, lookup_keys,
                        [raw](const std::string& key) {
                          return raw->shard(raw->ShardFor(key))->primary();
                        },
                        &report);

    // Wire codec over the workload's own frames.
    std::vector<std::string> req_frames(reqs.size()), resp_frames(reqs.size());
    std::vector<double> enc, dec;
    for (int pass = 0; pass < 3; pass++) {
      int64_t t = NowNs();
      for (size_t i = 0; i < reqs.size(); i++) {
        req_frames[i].clear();
        resp_frames[i].clear();
        wire::EncodeRequest(reqs[i], &req_frames[i]);
        wire::EncodeResponse(resps[i], &resp_frames[i]);
      }
      enc.push_back(static_cast<double>(NowNs() - t) / reqs.size());
      wire::Request rq;
      wire::Response rp;
      t = NowNs();
      for (size_t i = 0; i < reqs.size(); i++) {
        if (!wire::DecodeRequest(FramePayload(req_frames[i]), &rq).ok() ||
            !wire::DecodeResponse(FramePayload(resp_frames[i]), &rp).ok()) {
          report.mismatches++;
        }
      }
      dec.push_back(static_cast<double>(NowNs() - t) / reqs.size());
    }
    AddLayer(&report, "serve.wire_ns.encode", Median(enc));
    AddLayer(&report, "serve.wire_ns.decode", Median(dec));

    std::vector<std::string> docs = corpus.docs;
    for (const auto& list : ops) {
      for (const Op& op : list) {
        if (!op.doc.empty()) docs.push_back(op.doc);
      }
    }
    AddDocumentReplays(docs, &report);
    FillMissingLayerMetrics(&report);
  }
  std::fprintf(stderr,
               "served: %zu preload, %zu ops (%zu put, %zu get, %zu lookup, "
               "%zu range) in %.2f s; %llu failed\n",
               preload, ops[0].size() + ops[1].size(),
               lat.All(kPutClass).size(), lat.All(kGetClass).size(),
               lat.All(kLookupClass).size(), lat.All(kRangeClass).size(),
               wall_s,
               (unsigned long long)report.failed);
  server.reset();
  db.reset();
  RemoveTree(path);
  report.correct = report.correct && report.mismatches == 0;
  return report;
}

}  // namespace perfbench
