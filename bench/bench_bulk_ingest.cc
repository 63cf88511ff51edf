// BULK: corpus-scale ingest. A loop of per-annotation Commit versus one
// CommitBatch at 1k/10k/50k annotations, small live batches into a 50k
// store, and cold persistence reload
// (Graphitti::LoadFrom) of a large saved corpus — the path that packs the
// interval trees / R-trees via the median / STR bulk builds instead of
// replaying one tree insert and one posting append per referent.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/graphitti.h"
#include "util/random.h"

namespace {

namespace fs = std::filesystem;

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;
using graphitti::spatial::Rect;
using graphitti::util::Rng;

constexpr int kNumSegments = 8;
constexpr int kNumChromosomes = 4;

std::unique_ptr<Graphitti> FreshEngine() {
  auto g = std::make_unique<Graphitti>();
  (void)g->RegisterCoordinateSystem("atlas", 2);
  (void)g->RegisterDerivedCoordinateSystem("stack50um", "atlas", {2.0, 2.0, 1.0},
                                           {10.0, 20.0, 0.0});
  return g;
}

// A mixed corpus: every annotation marks one interval, a third mark a second
// interval on another 1D domain, a fifth mark an image region (half through
// a derived coordinate system), with a skewed keyword vocabulary — the same
// shape per-commit and batched ingest must agree on.
std::vector<AnnotationBuilder> MakeCorpus(size_t n) {
  Rng rng(29);
  std::vector<AnnotationBuilder> builders;
  builders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnnotationBuilder b;
    std::string body = "alpha";
    if (i % 4 == 0) body += " beta";
    if (i % 32 == 0) body += " gamma observed near the mark";
    body += " w" + std::to_string(rng.Next64() % (n / 4 + 1));
    b.Title("bulk" + std::to_string(i)).Creator("ingest-bot").Body(body);
    int64_t lo = static_cast<int64_t>(rng.Next64() % 1000000);
    b.MarkInterval("flu:seg" + std::to_string(i % kNumSegments), lo, lo + 120);
    if (i % 3 == 0) {
      int64_t lo2 = static_cast<int64_t>(rng.Next64() % 500000);
      b.MarkInterval("mouse:chr" + std::to_string(i % kNumChromosomes), lo2, lo2 + 80);
    }
    if (i % 5 == 0) {
      double x = static_cast<double>(rng.Next64() % 4096);
      double y = static_cast<double>(rng.Next64() % 4096);
      b.MarkRegion(i % 2 ? "stack50um" : "atlas", Rect::Make2D(x, y, x + 8, y + 8));
    }
    if (i % 7 == 0) b.UserTag("grade", i % 2 ? "high" : "low");
    builders.push_back(std::move(b));
  }
  return builders;
}

void BM_BulkIngest_PerCommit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(n);
  size_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto g = FreshEngine();
    state.ResumeTiming();
    for (const AnnotationBuilder& b : corpus) {
      committed += g->Commit(b).ok() ? 1 : 0;
    }
    state.PauseTiming();
    g.reset();  // engine teardown is not ingest cost
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_BulkIngest_PerCommit)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_BulkIngest_CommitBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(n);
  size_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto g = FreshEngine();
    state.ResumeTiming();
    auto ids = g->CommitBatch(corpus);
    if (!ids.ok()) std::abort();
    committed += ids->size();
    state.PauseTiming();
    g.reset();  // engine teardown is not ingest cost
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_BulkIngest_CommitBatch)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Live small batches into a large store: a 4-annotation CommitBatch (the
// size of an interactive multi-mark save) on an engine already holding
// `range(0)` annotations. Each call runs the batch twice — on the writer's
// scratch and again when the standby version replays it — so any per-call
// cost that grows with the store instead of the batch shows up here.
void BM_BulkIngest_SmallBatchIntoLargeStore(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 4;
  auto g = FreshEngine();
  if (!g->CommitBatch(MakeCorpus(n)).ok()) std::abort();
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(kBatch * 64);
  size_t committed = 0;
  size_t next = 0;
  for (auto _ : state) {
    std::vector<AnnotationBuilder> batch(corpus.begin() + static_cast<std::ptrdiff_t>(next),
                                         corpus.begin() +
                                             static_cast<std::ptrdiff_t>(next + kBatch));
    next = (next + kBatch) % corpus.size();
    auto ids = g->CommitBatch(batch);
    if (!ids.ok()) std::abort();
    committed += ids->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["store_annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_BulkIngest_SmallBatchIntoLargeStore)
    ->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

// Saved-corpus directory, built once per size and reused across iterations
// (SaveTo output is deterministic for a given corpus).
const std::string& SavedCorpusDir(size_t n) {
  static std::map<size_t, std::string>* dirs = new std::map<size_t, std::string>();
  auto it = dirs->find(n);
  if (it == dirs->end()) {
    fs::path dir = fs::temp_directory_path() / ("graphitti_bulk_ingest_" + std::to_string(n));
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto g = FreshEngine();
    for (const AnnotationBuilder& b : MakeCorpus(n)) {
      if (!g->Commit(b).ok()) std::abort();
    }
    if (!g->SaveTo(dir.string()).ok()) std::abort();
    it = dirs->emplace(n, dir.string()).first;
  }
  return it->second;
}

// Cold reload: every iteration rebuilds a full engine from disk. This is
// the ISSUE-5 headline number — persistence replay packs the spatial trees
// once per domain instead of replaying one insert per referent.
void BM_BulkIngest_LoadFrom(benchmark::State& state) {
  const std::string& dir = SavedCorpusDir(static_cast<size_t>(state.range(0)));
  size_t loaded = 0;
  for (auto _ : state) {
    auto g = Graphitti::LoadFrom(dir);
    if (!g.ok()) std::abort();
    benchmark::DoNotOptimize(*g);
    state.PauseTiming();
    loaded += (*g)->Stats().num_annotations;
    g->reset();  // teardown is not reload cost
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(loaded));
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BulkIngest_LoadFrom)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
