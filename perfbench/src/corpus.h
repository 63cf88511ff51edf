// Seeded inputs of the engine benchmark: the annotation corpus (the
// influenza shape and the brain-atlas shape), the objects it marks, the
// query mix, and the annotate flow a writer client runs.
//
// Everything here is derived from one seed. The engine only ever receives
// the generated inputs; the answer model (model.h) is built from the same
// inputs, never from the engine.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "annotation/annotation.h"
#include "core/graphitti.h"

namespace perfbench {

/// splitmix64: small, portable, and identical on every compiler.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi], inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Double() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

// Corpus shape. The influenza part marks gene-sized intervals on segment
// domains (one DNA object per strain and segment); the brain-atlas part
// marks 3D boxes in one atlas coordinate system and cites a term of an
// is_a tree. Strains, segments, segment length, images, atlas extent,
// marks per annotation, creators and the protease share are the defaults
// of the library's own generators (core::InfluenzaParams and
// core::BrainAtlasParams), and the brain share is their default annotation
// counts, 150 of 200 + 150. perfbench/README.md says where this corpus
// departs from them and why.
inline constexpr int kStrains = 8;
inline constexpr int kSegments = 8;
inline constexpr int64_t kSegmentLength = 2000;
inline constexpr int kImages = 40;
inline constexpr int64_t kAtlasExtent = 10000;
inline constexpr int kTermFanout = 4;
inline constexpr int kTermDepth = 3;
inline constexpr int kVocabulary = 400;
inline constexpr double kBrainShare = 150.0 / 350.0;
inline constexpr double kProteaseShare = 0.2;
inline constexpr int kWriterSegments = 8;
inline constexpr char kAtlas[] = "atlas_25um";
inline constexpr char kOntology[] = "brain";
/// The writer's keyword: eight letters, like every corpus word, but never
/// one of them, so no corpus keyword query can match writer text.
inline constexpr char kWriterKeyword[] = "tailnote";

struct Box {
  std::array<int64_t, 3> lo{};
  std::array<int64_t, 3> hi{};
};

/// One generated annotation.
struct AnnSpec {
  std::string title;  // "n<index>", unique
  std::string creator;
  std::string body;
  std::vector<int> words;  // sorted distinct vocabulary ids in `body`
  int domain = -1;         // influenza: the segment domain of every interval
  std::vector<std::pair<int64_t, int64_t>> intervals;
  int image = -1;  // brain atlas: the image every box is marked on
  std::vector<Box> boxes;
  int term = -1;  // brain atlas: the cited ontology term
};

struct Corpus {
  uint64_t seed = 0;
  std::vector<std::string> vocab;     // vocab[0] is "protease"
  std::vector<std::string> domains;   // influenza segment domains
  std::vector<int> term_parent;       // is_a parent of term i; -1 for the root
  std::string obo;                    // the ontology as OBO text
  std::vector<AnnSpec> anns;
};

Corpus MakeCorpus(uint64_t seed, size_t annotations);

std::string TermId(int term);
std::string WriterDomain(int segment);

/// Object ids the corpus marks, as the engine assigned them.
struct Objects {
  std::vector<uint64_t> dna;     // one per influenza domain
  std::vector<uint64_t> images;  // kImages
  std::vector<uint64_t> writer;  // one per writer segment
  bool operator==(const Objects& o) const {
    return dna == o.dna && images == o.images && writer == o.writer;
  }
};

/// Registers the coordinate system, the ontology and every object the
/// corpus and the writer mark.
graphitti::util::Status RegisterObjects(graphitti::core::Graphitti& g, const Corpus& c,
                                        Objects* out);

std::vector<graphitti::annotation::AnnotationBuilder> MakeBuilders(const Corpus& c,
                                                                   const Objects& objs);

// ---------------------------------------------------------------- queries

enum class QClass { kKeyword, kIntervalWindow, kRegionWindow, kTermBelow, kFragments, kGraphJoin };
inline constexpr int kNumClasses = 6;
const char* ClassName(QClass c);

struct QuerySpec {
  QClass cls = QClass::kKeyword;
  std::string text;
  int word = -1;
  int domain = -1;
  int64_t lo = 0;
  int64_t hi = 0;
  Box box;
  int term = -1;
  /// graph_join: pages flipped to after the first, in order.
  std::vector<size_t> flips;
};

inline constexpr size_t kGraphPageSize = 10;

/// Round `index` of the mix: two keyword queries (a common and a rare
/// term), two of each window class, two TERM BELOW, one FRAGMENTS and one
/// GRAPH join with its page flips. The weights are assumed, not measured;
/// perfbench/README.md gives the reason for each.
std::vector<QuerySpec> MakeRound(const Corpus& c, size_t index, Rng* rng);

// ---------------------------------------------------------------- writer

/// One annotation the annotate flow committed and has not removed.
struct WriterAnn {
  graphitti::annotation::AnnotationId id = 0;
  int segment = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// The annotate tab in a loop: search the writer's objects, commit an
/// annotation on a writer-only domain with the writer keyword, and remove
/// the oldest one now and then. Writer text, domains and objects are
/// disjoint from the corpus, so no corpus query answer changes.
graphitti::annotation::AnnotationBuilder WriterBuilder(uint64_t n, int segment, uint64_t object);
inline constexpr uint64_t kRemoveEvery = 8;

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
