#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "core/graphitti.h"
#include "corpus.h"
#include "model.h"
#include "persist/env.h"
#include "persist/wal.h"
#include "query/parser.h"
#include "relational/predicate.h"
#include "relational/value.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace util = graphitti::util;
using graphitti::annotation::AnnotationBuilder;
using graphitti::annotation::AnnotationId;
using graphitti::core::Graphitti;
using graphitti::query::QueryResult;
using graphitti::relational::Predicate;
using graphitti::relational::Value;
using Clock = std::chrono::steady_clock;

void Report::Op(const std::string& type, bool ok, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  Tally& t = ops_[type];
  ++t.attempted;
  if (!ok) {
    if (++t.failed <= 5) std::fprintf(stderr, "FAILED %s: %s\n", type.c_str(), why.c_str());
  }
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::map<std::string, Report::Tally> Report::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

namespace {

// Sizes. A run attempts whole rounds of the query mix (ten queries each)
// until --seconds have passed; everything else is a fixed count.
constexpr size_t kQueryCorpus = 20000;
constexpr size_t kLoadCorpus = 50000;
constexpr size_t kLoadBatches = 5;      // CommitBatch calls per load
constexpr size_t kPoolRounds = 64;      // distinct rounds, cycled (query workloads)
constexpr int kSlices = 5;              // set-ups per run; setup_s is their median
// Annotate steps after each measured query round: query_alone's in-memory
// commits.
constexpr size_t kCommitsPerRound = 50;
constexpr uint64_t kCheckpointEvery = 100;
// Query rounds per load_restart cycle, each distinct, so that its
// query_p99_us rests on some 20 distinct GRAPH joins beyond the p99 and not
// on repeats of a seed's few costliest ones.
constexpr size_t kRestartRounds = 200;
// load_restart's WAL tail, a tenth of its corpus, is committed between them.
constexpr size_t kTailPerRound = 25;
constexpr size_t kTail = kRestartRounds * kTailPerRound;
static_assert(kTail == kLoadCorpus / 10);
constexpr size_t kWalProbeRecords = 200;
// load_restart's tail exists to leave a WAL to replay, so it group-commits
// (an fsync at most once a second, under one commit in a thousand): its
// commit figures then measure the commit path, not the disk's fsync tail,
// which varies several-fold from run to run on a shared disk.
// query_with_writer keeps fsync per record.
constexpr int kGroupCommitMs = 1000;
constexpr size_t kWalRecordHeader = 9;  // u32 len | u32 crc | u8 type
const char kAllReferents[] = "FIND REFERENTS WHERE { ?s IS REFERENT }";

double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Sec(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The tail of a long latency series: the median, over consecutive blocks
/// of 1000 samples, of each block's p99, so one burst of machine noise
/// moves one block and not the figure. Series shorter than two blocks
/// give their plain p99.
double BlockP99(const std::vector<double>& v) {
  constexpr size_t kBlock = 1000;
  if (v.size() < 2 * kBlock) return Quantile(v, 0.99);
  std::vector<double> p99s;
  for (size_t i = 0; i + kBlock <= v.size(); i += kBlock) {
    p99s.push_back(Quantile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                                v.begin() + static_cast<std::ptrdiff_t>(i + kBlock)),
                            0.99));
  }
  return Median(p99s);
}
double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}
/// Queries per second of the latencies `us[from..]`: their count over the
/// sum of their timed spans, so the checks between queries are not counted.
double Rate(const std::vector<double>& us, size_t from) {
  double total = std::accumulate(us.begin() + static_cast<std::ptrdiff_t>(from), us.end(), 0.0);
  return total > 0 ? static_cast<double>(us.size() - from) / (total / 1e6) : 0;
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix = "") {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec) && e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

const char* LayerSpan(QClass c) {
  switch (c) {
    case QClass::kKeyword:
      return "annotation.keyword";
    case QClass::kIntervalWindow:
      return "spatial.interval_window";
    case QClass::kRegionWindow:
      return "spatial.region_window";
    case QClass::kTermBelow:
      return "ontology.term_below";
    case QClass::kFragments:
      return "xml.fragments";
    case QClass::kGraphJoin:
      return "query.graph_join";
  }
  return "query.other";
}

/// What a run measures; the metrics are computed from it at the end.
struct Measure {
  std::vector<double> setup_s, ingest_per_s, ttfq_ms, durable_bytes;
  std::vector<double> query_us;  // end-to-end, per query
  std::vector<double> query_rates;  // queries per second, one per query loop
  std::vector<double> commit_us;
  std::vector<double> commit_rates;  // commits per second, one per annotate loop
  // Per-layer counters.
  double rows_examined = 0, peak_rows = 0, trees = 0;
  size_t query_stats = 0, graph_ops = 0;
  std::atomic<size_t> live_versions_max{0};
  std::vector<double> wal_bytes_per_record, snapshot_bytes;

  void SampleVersions(const Graphitti& g) {
    size_t v = g.live_engine_versions();
    size_t seen = live_versions_max.load(std::memory_order_relaxed);
    while (v > seen && !live_versions_max.compare_exchange_weak(seen, v)) {
    }
  }
};

/// One workload run: its inputs, the answer model, and its measurements.
struct Ctx {
  Ctx(const Options& o, Report* r, size_t annotations, size_t pool_rounds)
      : opt(o), rep(*r), tracer(o.trace), corpus(MakeCorpus(o.seed, annotations)), model(corpus) {
    Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 99);
    for (size_t i = 0; i < pool_rounds; ++i) pool.push_back(MakeRound(corpus, i, &rng));
    main_log = tracer.NewLog();
  }
  std::string Dir(const std::string& name) const {
    return opt.workdir + "/" + name + "-" + std::to_string(getpid());
  }

  const Options& opt;
  Report& rep;
  Tracer tracer;
  Corpus corpus;
  Model model;
  std::vector<std::vector<QuerySpec>> pool;
  SpanLog* main_log = nullptr;
  graphitti::core::DurabilityOptions durability;  // for every OpenDurable
  size_t next_round = 0;  // the next pool round a query loop runs
  Measure m;
};

/// A corpus loaded into one engine, and the model bound to its ids.
struct Engine {
  std::unique_ptr<Graphitti> g;
  std::vector<AnnotationId> ids;  // corpus annotation i -> engine id
  Binding binding;
};

/// Learns the object ids a fresh engine assigns (they are sequential and
/// the same in every engine) so builders can be made once.
bool LearnObjects(Ctx& c, Objects* objs) {
  Graphitti g;
  util::Status st = RegisterObjects(g, c.corpus, objs);
  c.rep.Op("register", st.ok(), st.ToString());
  return st.ok();
}

bool Register(Ctx& c, Graphitti& g, const Objects& want) {
  Objects got;
  util::Status st = RegisterObjects(g, c.corpus, &got);
  bool ok = st.ok() && got == want;
  c.rep.Op("register", ok, st.ok() ? "object ids differ" : st.ToString());
  return ok;
}

/// Commits the corpus, one CommitBatch per batch; the corpus size over the
/// time of all batches goes to `rates` when given.
bool Ingest(Ctx& c, Engine* e, const std::vector<std::vector<AnnotationBuilder>>& batches,
            SpanLog* log, std::vector<double>* rates) {
  e->ids.clear();
  double seconds = 0;
  for (const auto& batch : batches) {
    auto t0 = Clock::now();
    util::Result<std::vector<AnnotationId>> ids = [&] {
      Scope s(log, "core.commit_batch");
      return e->g->CommitBatch(batch);
    }();
    auto t1 = Clock::now();
    bool ok = ids.ok() && ids->size() == batch.size();
    c.rep.Op("commit_batch", ok, ids.status().ToString());
    if (!ok) return false;
    e->ids.insert(e->ids.end(), ids->begin(), ids->end());
    seconds += Sec(t1 - t0);
  }
  if (rates != nullptr) rates->push_back(static_cast<double>(e->ids.size()) / seconds);
  return true;
}

/// The corpus builders in `n` batches of equal size.
std::vector<std::vector<AnnotationBuilder>> Batches(const Corpus& corpus, const Objects& objs,
                                                    size_t n) {
  std::vector<AnnotationBuilder> all = MakeBuilders(corpus, objs);
  std::vector<std::vector<AnnotationBuilder>> out(n);
  for (size_t i = 0; i < all.size(); ++i) out[i * n / all.size()].push_back(std::move(all[i]));
  return out;
}

bool Checkpoint(Ctx& c, Graphitti& g, const std::string& dir, SpanLog* log) {
  util::Status st;
  {
    Scope s(log, "persist.checkpoint");
    st = g.Checkpoint();
  }
  c.rep.Op("checkpoint", st.ok(), st.ToString());
  if (st.ok()) c.m.snapshot_bytes.push_back(static_cast<double>(DirBytes(dir, "snapshot")));
  return st.ok();
}

std::unique_ptr<Graphitti> Open(Ctx& c, const std::string& dir, SpanLog* log) {
  util::Result<std::unique_ptr<Graphitti>> g = [&] {
    Scope s(log, "persist.open");
    return Graphitti::OpenDurable(dir, c.durability);
  }();
  c.rep.Op("open", g.ok(), g.status().ToString());
  return g.ok() ? std::move(*g) : nullptr;
}

/// Maps the model onto `e`'s ids.
bool Bind(Ctx& c, Engine* e, const std::vector<RefKey>& extra_keys) {
  util::Result<QueryResult> refs = e->g->Query(kAllReferents);
  std::string why = refs.ok() ? e->binding.Bind(c.model, e->ids, *refs, extra_keys)
                              : refs.status().ToString();
  c.rep.Op("bind", why.empty(), why);
  return why.empty();
}

/// One query of the mix: Query, the page flips, then the release of the
/// result. Its latency covers those three and not the checks between them.
void RunQuery(Ctx& c, const Graphitti& g, const QuerySpec& q, const Expected& e, SpanLog* log,
              std::vector<double>* latency_us) {
  Scope op(log, "op.query");
  if (log != nullptr) {
    Scope s(log, "query.parse");
    (void)graphitti::query::ParseQuery(q.text);
  }
  auto t0 = Clock::now();
  util::Result<QueryResult> res = [&] {
    Scope s(log, LayerSpan(q.cls));
    return g.Query(q.text);
  }();
  auto t1 = Clock::now();
  if (!res.ok()) {
    c.rep.Op(ClassName(q.cls), false, res.status().ToString());
    return;
  }
  std::optional<QueryResult> r(std::move(*res));
  std::string why = CheckResult(q, e, *r, 1, /*check_items=*/true);
  double flips_us = 0;
  for (size_t page : q.flips) {
    if (!why.empty()) break;
    auto f0 = Clock::now();
    util::Status st;
    {
      Scope s(log, "agraph.page_flip");
      st = g.MaterializePage(&*r, page);
    }
    flips_us += Us(Clock::now() - f0);
    why = st.ok() ? CheckResult(q, e, *r, page, /*check_items=*/false) : st.ToString();
  }
  c.m.rows_examined += static_cast<double>(r->stats.rows_examined);
  c.m.peak_rows += static_cast<double>(r->stats.peak_rows);
  ++c.m.query_stats;
  if (q.cls == QClass::kGraphJoin) {
    c.m.trees += static_cast<double>(r->stats.connect_trees_built);
    ++c.m.graph_ops;
  }
  auto t2 = Clock::now();
  {
    Scope s(log, "core.result_release");
    r.reset();
  }
  auto t3 = Clock::now();
  c.rep.Op(ClassName(q.cls), why.empty(), why.empty() ? why : q.text + ": " + why);
  c.m.SampleVersions(g);
  if (latency_us != nullptr) latency_us->push_back(Us(t1 - t0) + flips_us + Us(t3 - t2));
}

void RunRound(Ctx& c, const Engine& e, size_t round, SpanLog* log, std::vector<double>* lat) {
  // Each answer is worked out just before its query, outside the timed
  // span, so that the benchmark's own memory stays out of peak_rss_mb.
  for (const QuerySpec& q : c.pool[round % c.pool.size()]) {
    RunQuery(c, *e.g, q, e.binding.For(q), log, lat);
  }
}

/// The annotate flow (see WriterBuilder) against one engine.
class Annotator {
 public:
  Annotator(Ctx& c, Graphitti& g, const Objects& objs, std::string dir, SpanLog* log)
      : c_(c), g_(g), objs_(objs), dir_(std::move(dir)), log_(log) {}

  /// Search, commit, now and then a remove, and with `checkpoint_every`
  /// set a Checkpoint every that many commits.
  void Step(uint64_t checkpoint_every, std::vector<double>* commit_us) {
    Scope op(log_, "op.annotate");
    int seg = static_cast<int>(n_ % kWriterSegments);
    uint64_t object = objs_.writer[static_cast<size_t>(seg)];
    util::Result<std::vector<uint64_t>> found = [&] {
      Scope s(log_, "relational.search_objects");
      return g_.SearchObjects("dna_sequences",
                              Predicate::And(Predicate::Eq("organism", Value::Str("writer-lab")),
                                             Predicate::Eq("segment", Value::Str(WriterDomain(seg)))));
    }();
    bool found_ok = found.ok() && *found == std::vector<uint64_t>{object};
    c_.rep.Op("search_objects", found_ok, found.status().ToString());
    AnnotationBuilder b = WriterBuilder(n_, seg, object);
    auto t0 = Clock::now();
    util::Result<AnnotationId> id = [&] {
      Scope s(log_, "core.commit");
      return g_.Commit(b);
    }();
    auto t1 = Clock::now();
    c_.rep.Op("commit", id.ok(), id.status().ToString());
    if (id.ok()) {
      commit_us->push_back(Us(t1 - t0));
      live_.push_back({*id, seg, static_cast<int64_t>(n_) * 4, static_cast<int64_t>(n_) * 4 + 2});
      ++records_;
    }
    ++n_;
    c_.m.SampleVersions(g_);
    if (n_ % kRemoveEvery == 0 && !live_.empty()) {
      util::Status st;
      {
        Scope s(log_, "core.remove");
        st = g_.RemoveAnnotation(live_.front().id);
      }
      c_.rep.Op("remove", st.ok(), st.ToString());
      if (st.ok()) {
        live_.pop_front();
        ++records_;
      }
    }
    if (checkpoint_every > 0 && n_ % checkpoint_every == 0) {
      RecordWalBytes();
      Checkpoint(c_, g_, dir_, log_);
    }
  }

  /// WAL bytes per durable record since the last checkpoint.
  void RecordWalBytes() {
    if (dir_.empty() || records_ == 0) return;
    uint64_t bytes = DirBytes(dir_, "wal");
    if (bytes > graphitti::persist::kWalHeaderSize) {
      c_.m.wal_bytes_per_record.push_back(
          static_cast<double>(bytes - graphitti::persist::kWalHeaderSize) /
          static_cast<double>(records_));
    }
    records_ = 0;
  }

  const std::deque<WriterAnn>& live() const { return live_; }
  uint64_t commits() const { return n_; }

 private:
  Ctx& c_;
  Graphitti& g_;
  const Objects& objs_;
  std::string dir_;  // "" for an in-memory engine
  SpanLog* log_;
  uint64_t n_ = 0;
  uint64_t records_ = 0;  // durable records since the last checkpoint
  std::deque<WriterAnn> live_;
};

/// One warm-up round, then whole rounds until `seconds` have passed. The
/// rounds continue through the pool from where the last loop stopped.
/// With `writer` set, each measured round is followed by kCommitsPerRound
/// annotate steps, timed apart from the queries and never beside one.
void QueryLoop(Ctx& c, const Engine& e, double seconds, Annotator* writer, SpanLog* log) {
  RunRound(c, e, c.next_round + c.pool.size() - 1, log, nullptr);
  double commit_s = 0;
  size_t queries = c.m.query_us.size();
  auto start = Clock::now();
  while (Sec(Clock::now() - start) < seconds) {
    RunRound(c, e, c.next_round++, log, &c.m.query_us);
    if (writer == nullptr) continue;
    auto t1 = Clock::now();
    for (size_t i = 0; i < kCommitsPerRound; ++i) writer->Step(0, &c.m.commit_us);
    commit_s += Sec(Clock::now() - t1);
  }
  c.m.query_rates.push_back(Rate(c.m.query_us, queries));
  if (writer != nullptr) c.m.commit_rates.push_back(double(writer->commits()) / commit_s);
}

std::vector<RefKey> WriterKeys(const std::deque<WriterAnn>& live) {
  std::vector<RefKey> keys;
  for (const WriterAnn& w : live) keys.push_back(IntervalKey(WriterDomain(w.segment), w.lo, w.hi));
  return keys;
}

/// Checks that `g` holds exactly the corpus plus the writer's surviving
/// annotations: the annotation count, and the writer-keyword answer.
void VerifyContents(Ctx& c, const Graphitti& g, const std::deque<WriterAnn>& live) {
  size_t want = c.corpus.anns.size() + live.size();
  size_t have = g.Stats().num_annotations;
  c.rep.Op("verify", have == want,
           "engine holds " + std::to_string(have) + " annotations, model " + std::to_string(want));
  QuerySpec q;
  q.text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + std::string(kWriterKeyword) + "\" }";
  Expected e;
  for (const WriterAnn& w : live) e.ids.push_back(w.id);
  std::sort(e.ids.begin(), e.ids.end());
  util::Result<QueryResult> r = g.Query(q.text);
  c.rep.Op("verify", r.ok() && CheckResult(q, e, *r, 1, true).empty(),
           r.ok() ? "writer annotations: " + CheckResult(q, e, *r, 1, true) : r.status().ToString());
}

/// Reopens a closed durable directory: OpenDurable, a cheap first call
/// that hydrates, and the first query. Records time_to_first_query_ms and
/// checks the engine against the model.
std::unique_ptr<Graphitti> Reopen(Ctx& c, const std::string& dir, const Engine& closed,
                                  const std::deque<WriterAnn>& live, size_t objects,
                                  SpanLog* log) {
  Scope op(log, "op.restart");
  auto t0 = Clock::now();
  std::unique_ptr<Graphitti> g = Open(c, dir, log);
  if (g == nullptr) return nullptr;
  size_t have = 0;
  {
    Scope s(log, "core.hydrate");
    have = g->num_objects();
  }
  c.rep.Op("hydrate", have == objects, "objects " + std::to_string(have));
  // The first query: the round's common keyword, answered from the model.
  const QuerySpec& q = c.pool[0][0];
  Expected e;
  for (int a : c.model.Keyword(q.word)) e.ids.push_back(closed.ids[static_cast<size_t>(a)]);
  std::sort(e.ids.begin(), e.ids.end());
  auto t1 = Clock::now();
  util::Result<QueryResult> res = [&] {
    Scope s(log, "core.first_query");
    return g->Query(q.text);
  }();
  auto t2 = Clock::now();
  std::optional<QueryResult> r;
  if (res.ok()) r.emplace(std::move(*res));
  std::string why = r ? CheckResult(q, e, *r, 1, true) : res.status().ToString();
  auto t3 = Clock::now();
  r.reset();
  auto t4 = Clock::now();
  c.rep.Op("first_query", why.empty(), why);
  c.m.ttfq_ms.push_back(Ms(t1 - t0) + Ms(t2 - t1) + Ms(t4 - t3));
  VerifyContents(c, *g, live);
  return g;
}

size_t ObjectCount(const Objects& o) { return o.dna.size() + o.images.size() + o.writer.size(); }

// ---------------------------------------------------------------- workloads

// Both query workloads split a run into kSlices slices, each on a freshly
// set-up engine, so that every short measurement (set-up, ingest, commit
// blocks, reopens) is spread across the run instead of bunched at one end
// of it, where a moment of machine noise would move it whole.

// One client, a non-durable engine, nothing else running beside it. Each
// slice: set up the engine, query for its share of --seconds with single
// in-memory commits between the rounds (commit_* without fsync), then
// reopen a durable copy of the corpus (durable_bytes,
// time_to_first_query_ms). No two operations ever overlap.
void QueryAlone(Ctx& c) {
  Objects objs;
  if (!LearnObjects(c, &objs)) return;
  auto builders = Batches(c.corpus, objs, 1);
  SpanLog* log = c.main_log;

  std::string dir = c.Dir("query_alone");
  fs::remove_all(dir);
  Engine durable;
  durable.g = Open(c, dir, log);
  if (durable.g == nullptr || !Register(c, *durable.g, objs) ||
      !Ingest(c, &durable, builders, log, nullptr) || !Checkpoint(c, *durable.g, dir, log)) {
    return;
  }
  durable.g.reset();
  c.m.durable_bytes.push_back(static_cast<double>(DirBytes(dir)));

  for (int slice = 0; slice < kSlices; ++slice) {
    Engine e;
    auto t0 = Clock::now();
    e.g = std::make_unique<Graphitti>();
    if (!Register(c, *e.g, objs) || !Ingest(c, &e, builders, log, &c.m.ingest_per_s)) return;
    c.m.setup_s.push_back(Sec(Clock::now() - t0));
    if (!Bind(c, &e, {})) return;
    Annotator writer(c, *e.g, objs, "", log);
    QueryLoop(c, e, c.opt.seconds / kSlices, &writer, log);
    VerifyContents(c, *e.g, writer.live());
    e.g.reset();
    Reopen(c, dir, durable, {}, ObjectCount(objs), log);
  }
  fs::remove_all(dir);
}

// The same mix from one reader beside one writer client on a durable
// engine (fsync on every WAL record). Each slice: set up the durable
// engine, run reader and writer together for the slice's share of
// --seconds, check the engine, checkpoint, close and reopen it.
void QueryWithWriter(Ctx& c) {
  Objects objs;
  if (!LearnObjects(c, &objs)) return;
  auto builders = Batches(c.corpus, objs, 1);
  SpanLog* log = c.main_log;
  SpanLog* writer_log = c.tracer.NewLog();
  std::string dir = c.Dir("query_with_writer");
  for (int slice = 0; slice < kSlices; ++slice) {
    Engine e;
    fs::remove_all(dir);
    auto t0 = Clock::now();
    e.g = Open(c, dir, log);
    if (e.g == nullptr || !Register(c, *e.g, objs) ||
        !Ingest(c, &e, builders, log, &c.m.ingest_per_s) || !Checkpoint(c, *e.g, dir, log)) {
      return;
    }
    c.m.setup_s.push_back(Sec(Clock::now() - t0));
    c.m.durable_bytes.push_back(static_cast<double>(DirBytes(dir)));
    if (!Bind(c, &e, {})) return;

    std::atomic<bool> stop{false};
    Annotator writer(c, *e.g, objs, dir, writer_log);
    double writer_rate = 0;
    std::thread writer_thread([&] {
      try {
        auto t1 = Clock::now();
        while (!stop.load(std::memory_order_acquire)) writer.Step(kCheckpointEvery, &c.m.commit_us);
        writer_rate = double(writer.commits()) / Sec(Clock::now() - t1);
      } catch (const std::exception& ex) {
        c.rep.Op("writer", false, ex.what());
      }
    });
    try {
      QueryLoop(c, e, c.opt.seconds / kSlices, nullptr, log);
    } catch (...) {
      stop.store(true, std::memory_order_release);
      writer_thread.join();
      throw;
    }
    stop.store(true, std::memory_order_release);
    writer_thread.join();
    c.m.commit_rates.push_back(writer_rate);
    writer.RecordWalBytes();
    VerifyContents(c, *e.g, writer.live());
    // Reopen from a fresh snapshot: how much WAL the writer left behind
    // depends on where the slice stopped, and load_restart measures replay.
    if (!Checkpoint(c, *e.g, dir, log)) return;
    e.g.reset();
    Reopen(c, dir, e, writer.live(), ObjectCount(objs), log);
  }
  fs::remove_all(dir);
}

// Cycles of: bulk-load the corpus into a fresh durable directory,
// checkpoint, query it while adding a WAL tail of single commits, close,
// reopen, and check the reopened engine.
void LoadRestart(Ctx& c) {
  Objects objs;
  if (!LearnObjects(c, &objs)) return;
  auto builders = Batches(c.corpus, objs, kLoadBatches);
  SpanLog* log = c.main_log;
  std::string dir = c.Dir("load_restart");
  auto start = Clock::now();
  for (size_t cycle = 0; cycle == 0 || Sec(Clock::now() - start) < c.opt.seconds; ++cycle) {
    Scope op(log, "op.load");
    fs::remove_all(dir);
    // setup_s: the load is the set-up, from OpenDurable of a fresh
    // directory through the Checkpoint of the loaded engine. One sample
    // per cycle, of a few seconds of mostly CPU-bound work. An empty
    // engine's set-up takes a few milliseconds, mostly fsyncs, and on a
    // shared disk its median moves by half between sets of runs.
    auto t0 = Clock::now();
    Engine e;
    e.g = Open(c, dir, log);
    if (e.g == nullptr || !Register(c, *e.g, objs) ||
        !Ingest(c, &e, builders, log, &c.m.ingest_per_s) ||
        !Checkpoint(c, *e.g, dir, log)) {
      return;
    }
    c.m.setup_s.push_back(Sec(Clock::now() - t0));
    if (!Bind(c, &e, {})) return;
    // The WAL tail is committed between the query rounds, so its short
    // commits are spread over the cycle instead of bunched where one
    // moment of machine noise could move them whole. Rounds and commits
    // never overlap; the writer's data is disjoint from every query's
    // answer.
    Annotator tail(c, *e.g, objs, dir, log);
    double tail_s = 0;
    size_t queries = c.m.query_us.size();
    for (size_t round = 0; round < kRestartRounds; ++round) {
      RunRound(c, e, round, log, &c.m.query_us);
      auto t1 = Clock::now();
      for (size_t i = 0; i < kTailPerRound; ++i) tail.Step(0, &c.m.commit_us);
      tail_s += Sec(Clock::now() - t1);
    }
    c.m.query_rates.push_back(Rate(c.m.query_us, queries));
    c.m.commit_rates.push_back(double(kTail) / tail_s);
    tail.RecordWalBytes();
    e.g.reset();
    c.m.durable_bytes.push_back(static_cast<double>(DirBytes(dir)));
    e.g = Reopen(c, dir, e, tail.live(), ObjectCount(objs), log);
    // The reopened engine must hold exactly the model: its referents, and
    // one checked (unmeasured) round of the mix.
    if (e.g == nullptr || !Bind(c, &e, WriterKeys(tail.live()))) return;
    RunRound(c, e, 0, log, nullptr);
    e.g.reset();
    fs::remove_all(dir);
  }
}

/// A standalone WalWriter on the benchmark's filesystem: fsynced appends
/// with a payload of the engine's mean durable record size.
void WalAppendProbe(Ctx& c) {
  double mean = Mean(c.m.wal_bytes_per_record);
  if (mean <= kWalRecordHeader) return;
  std::string path = c.Dir("wal_probe");
  fs::remove(path);
  auto opened = graphitti::persist::WalWriter::Open(graphitti::persist::Env::Default(), path, 1,
                                                   graphitti::persist::WalOptions{});
  c.rep.Op("wal_probe", opened.ok(), opened.status().ToString());
  if (!opened.ok()) return;
  std::unique_ptr<graphitti::persist::WalWriter> w = std::move(*opened);
  std::string payload(static_cast<size_t>(std::llround(mean)) - kWalRecordHeader, 'x');
  for (size_t i = 0; i < kWalProbeRecords; ++i) {
    util::Status st;
    {
      Scope s(c.main_log, "persist.wal_append");
      st = w->AppendRecord(graphitti::persist::WalRecordType::kCommitBatch, payload);
    }
    c.rep.Op("wal_probe", st.ok(), st.ToString());
  }
  w.reset();
  fs::remove(path);
}

void EndToEndMetrics(Ctx& c) {
  Measure& m = c.m;
  Report& r = c.rep;
  r.Metric("setup_s", Median(m.setup_s), "s");
  r.Metric("query_p50_us", Quantile(m.query_us, 0.50), "us");
  r.Metric("query_p99_us", BlockP99(m.query_us), "us");
  r.Metric("queries_per_s", Median(m.query_rates), "1/s");
  r.Metric("commit_p50_us", Quantile(m.commit_us, 0.50), "us");
  r.Metric("commit_p99_us", BlockP99(m.commit_us), "us");
  r.Metric("commits_per_s", Median(m.commit_rates), "1/s");
  r.Metric("ingest_annotations_per_s", Median(m.ingest_per_s), "1/s");
  r.Metric("time_to_first_query_ms", Median(m.ttfq_ms), "ms");
  r.Metric("durable_bytes", Median(m.durable_bytes), "bytes");
  r.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  auto beyond = [](size_t n) {
    if (n >= 2000) return "10 in each of " + std::to_string(n / 1000) + " blocks of 1000";
    return std::to_string(n - static_cast<size_t>(std::ceil(0.99 * double(n))));
  };
  r.Note("p99 samples beyond: queries " + beyond(m.query_us.size()) + ", commits " +
         beyond(m.commit_us.size()));
  r.Note("samples: queries=" + std::to_string(m.query_us.size()) +
         " commits=" + std::to_string(m.commit_us.size()) +
         " setups=" + std::to_string(m.setup_s.size()) +
         " restarts=" + std::to_string(m.ttfq_ms.size()));
}

void PerLayerMetrics(Ctx& c) {
  std::map<std::string, std::vector<double>> layers = c.tracer.Summarize();
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s %12s %12s", "span", "count",
                "self_ms", "mean_us", "p50_us", "p99_us");
  c.rep.Note(line);
  for (const auto& [name, self_ns] : layers) {
    std::snprintf(line, sizeof(line), "%-28s %8zu %12.3f %12.3f %12.3f %12.3f", name.c_str(),
                  self_ns.size(), std::accumulate(self_ns.begin(), self_ns.end(), 0.0) / 1e6,
                  Mean(self_ns) / 1e3, Quantile(self_ns, 0.5) / 1e3, Quantile(self_ns, 0.99) / 1e3);
    c.rep.Note(line);
  }
  // Mean self time per call of one span; 0 when the workload never made it.
  auto span = [&](const char* name, double ns_per_unit) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : Mean(it->second) / ns_per_unit;
  };
  const Measure& m = c.m;
  auto per = [](double total, size_t n) { return n == 0 ? 0.0 : total / double(n); };
  Report& r = c.rep;
  r.Metric("query.parse_us", span("query.parse", 1e3), "us");
  r.Metric("query.rows_examined", per(m.rows_examined, m.query_stats), "rows");
  r.Metric("query.peak_rows", per(m.peak_rows, m.query_stats), "rows");
  r.Metric("query.graph_join_us", span("query.graph_join", 1e3), "us");
  r.Metric("agraph.page_flip_us", span("agraph.page_flip", 1e3), "us");
  r.Metric("agraph.connect_trees_built", per(m.trees, m.graph_ops), "count");
  r.Metric("annotation.keyword_us", span("annotation.keyword", 1e3), "us");
  r.Metric("spatial.interval_window_us", span("spatial.interval_window", 1e3), "us");
  r.Metric("spatial.region_window_us", span("spatial.region_window", 1e3), "us");
  r.Metric("ontology.term_below_us", span("ontology.term_below", 1e3), "us");
  r.Metric("xml.fragments_us", span("xml.fragments", 1e3), "us");
  r.Metric("relational.search_objects_us", span("relational.search_objects", 1e3), "us");
  r.Metric("core.result_release_us", span("core.result_release", 1e3), "us");
  r.Metric("core.live_versions_max", double(m.live_versions_max.load()), "count");
  r.Metric("core.commit_us", span("core.commit", 1e3), "us");
  r.Metric("core.remove_us", span("core.remove", 1e3), "us");
  r.Metric("core.commit_batch_ms", span("core.commit_batch", 1e6), "ms");
  r.Metric("core.hydrate_ms", span("core.hydrate", 1e6), "ms");
  r.Metric("core.first_query_ms", span("core.first_query", 1e6), "ms");
  r.Metric("persist.wal_append_us", span("persist.wal_append", 1e3), "us");
  r.Metric("persist.wal_bytes_per_commit", Mean(m.wal_bytes_per_record), "bytes");
  r.Metric("persist.checkpoint_ms", span("persist.checkpoint", 1e6), "ms");
  r.Metric("persist.snapshot_bytes", Median(m.snapshot_bytes), "bytes");
  r.Metric("persist.open_ms", span("persist.open", 1e6), "ms");
  r.Metric("trace.queries_per_s", Median(m.query_rates), "1/s");
}

}  // namespace

std::string WalSync(const std::string& workload) {
  if (workload == "load_restart") return "interval-" + std::to_string(kGroupCommitMs) + "ms";
  if (workload == "query_alone") return "every-record (durable copy; commits in memory)";
  return "every-record";
}

bool RunWorkload(const Options& opt, Report* report) {
  if (opt.workload != "query_alone" && opt.workload != "query_with_writer" &&
      opt.workload != "load_restart") {
    return false;
  }
  bool load = opt.workload == "load_restart";
  Ctx c(opt, report, load ? kLoadCorpus : kQueryCorpus, load ? kRestartRounds : kPoolRounds);
  if (opt.workload == "load_restart") {
    c.durability.wal.sync_policy = graphitti::persist::WalOptions::SyncPolicy::kInterval;
    c.durability.wal.interval_ms = kGroupCommitMs;
  }
  if (opt.workload == "query_alone") {
    QueryAlone(c);
  } else if (opt.workload == "query_with_writer") {
    QueryWithWriter(c);
  } else {
    LoadRestart(c);
  }
  if (!opt.trace) {
    EndToEndMetrics(c);
    return true;
  }
  WalAppendProbe(c);
  PerLayerMetrics(c);
  std::string path = opt.workdir + "/trace-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".csv";
  if (c.tracer.Write(path)) c.rep.Note("spans written to " + path);
  return true;
}

// ---------------------------------------------------------------- self-test

int SelfTest(const Options& opt) {
  Options o = opt;
  o.seed = 7;
  Report rep;
  Ctx c(o, &rep, 3000, kPoolRounds);
  Objects objs;
  if (!LearnObjects(c, &objs)) return 1;
  Engine e;
  e.g = std::make_unique<Graphitti>();
  if (!Register(c, *e.g, objs) || !Ingest(c, &e, Batches(c.corpus, objs, 1), nullptr, nullptr) ||
      !Bind(c, &e, {})) {
    return 1;
  }
  int failures = 0;
  auto expect = [&](bool holds, const std::string& what) {
    std::printf("%-5s %s\n", holds ? "ok" : "FAIL", what.c_str());
    if (!holds) ++failures;
  };
  // One query of every class, picked so its answer is not empty.
  for (int cls = 0; cls < kNumClasses; ++cls) {
    const QuerySpec* q = nullptr;
    Expected want;
    for (size_t r = 0; r < c.pool.size() && q == nullptr; ++r) {
      for (size_t i = 0; i < c.pool[r].size(); ++i) {
        if (static_cast<int>(c.pool[r][i].cls) != cls) continue;
        want = e.binding.For(c.pool[r][i]);
        if (want.ids.size() + want.fragments.size() + want.rows.size() >= 2) {
          q = &c.pool[r][i];
          break;
        }
      }
    }
    if (q == nullptr) {
      expect(false, std::string("no non-empty ") + ClassName(static_cast<QClass>(cls)));
      continue;
    }
    util::Result<QueryResult> res = e.g->Query(q->text);
    if (!res.ok()) {
      expect(false, q->text + ": " + res.status().ToString());
      continue;
    }
    const std::string name = ClassName(q->cls);
    expect(CheckResult(*q, want, *res, 1, true).empty(), name + ": the true answer is accepted");
    QueryResult dropped = *res;
    dropped.items.erase(dropped.items.begin() + static_cast<std::ptrdiff_t>(dropped.items.size() / 2));
    expect(!CheckResult(*q, want, dropped, 1, true).empty(), name + ": one dropped row is caught");
    QueryResult wrong = *res;
    auto& item = wrong.items.back();
    switch (q->cls) {
      case QClass::kKeyword:
      case QClass::kTermBelow:
      case QClass::kFragments:
        item.content_id += 1000000;
        break;
      case QClass::kIntervalWindow:
      case QClass::kRegionWindow:
        item.referent_id += 1000000;
        break;
      case QClass::kGraphJoin:
        item.terminals.back().id += 1000000;
        break;
    }
    expect(!CheckResult(*q, want, wrong, 1, true).empty(), name + ": one wrong id is caught");
    if (q->cls == QClass::kGraphJoin) {
      QueryResult hollow = *res;
      hollow.items[hollow.page_first].subgraph.nodes.clear();
      expect(!CheckResult(*q, want, hollow, 1, true).empty(),
             name + ": a subgraph without its terminals is caught");
      QueryResult unflipped = *res;
      expect(!CheckResult(*q, want, unflipped, 2, false).empty(),
             name + ": a page flip that did not happen is caught");
    }
  }
  for (const auto& [type, t] : rep.ops()) {
    if (t.failed > 0) {
      expect(false, type + " failed during set-up");
    }
  }
  std::printf("self-test: %s\n", failures == 0 ? "every corruption caught" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
