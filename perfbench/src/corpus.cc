#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "spatial/rect.h"

namespace perfbench {

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;
namespace util = graphitti::util;

namespace {

// Gene intervals shared by every segment (three, InfluenzaParams'
// genes_per_segment): marks that reuse them make referents that many
// annotations share, as real gene annotations do. The library's generator
// never reuses an interval; the share of marks that do is assumed.
constexpr std::pair<int64_t, int64_t> kGenes[] = {{100, 599}, {700, 1199}, {1300, 1899}};
constexpr double kGeneShare = 0.3;

// Words are consonant-vowel alternations of eight letters. "protease" and
// the writer keyword do not alternate, so neither can be drawn, and two
// distinct eight-letter words never contain each other: a CONTAINS query
// for a word matches exactly the texts that hold that word.
std::vector<std::string> MakeVocabulary(Rng* rng) {
  static const char kConsonants[] = "bdfgklmnprstvz";
  static const char kVowels[] = "aeiou";
  std::set<std::string> seen;
  std::vector<std::string> vocab = {"protease"};
  while (vocab.size() < static_cast<size_t>(kVocabulary)) {
    std::string w(8, ' ');
    for (int i = 0; i < 8; i += 2) {
      w[i] = kConsonants[rng->Uniform(0, 13)];
      w[i + 1] = kVowels[rng->Uniform(0, 4)];
    }
    if (seen.insert(w).second) vocab.push_back(w);
  }
  return vocab;
}

// Zipf(1) over vocabulary ranks 1..kVocabulary-1: a few very common words
// and a long tail of rare ones, as word frequencies in text follow. The
// library's generator draws from ten keywords uniformly, which has no rare
// term for the keyword class to ask for.
class ZipfWords {
 public:
  ZipfWords() {
    double total = 0;
    for (int r = 1; r < kVocabulary; ++r) {
      total += 1.0 / r;
      cdf_.push_back(total);
    }
    for (double& v : cdf_) v /= total;
  }
  int Draw(Rng* rng) const {
    double u = rng->Double();
    return 1 + static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void FillText(const Corpus& c, const ZipfWords& zipf, bool protease, Rng* rng, AnnSpec* a) {
  std::vector<int> drawn;
  int n = static_cast<int>(rng->Uniform(3, 6));
  while (static_cast<int>(drawn.size()) < n) {
    int w = zipf.Draw(rng);
    if (std::find(drawn.begin(), drawn.end(), w) == drawn.end()) drawn.push_back(w);
  }
  if (protease) drawn.insert(drawn.begin() + rng->Uniform(0, n), 0);
  for (int w : drawn) {
    if (!a->body.empty()) a->body += ' ';
    a->body += c.vocab[static_cast<size_t>(w)];
  }
  a->words = drawn;
  std::sort(a->words.begin(), a->words.end());
}

}  // namespace

std::string TermId(int term) { return "BR:" + std::to_string(term); }
std::string WriterDomain(int segment) { return "wr:seg" + std::to_string(segment); }

Corpus MakeCorpus(uint64_t seed, size_t annotations) {
  Corpus c;
  c.seed = seed;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  c.vocab = MakeVocabulary(&rng);
  for (int s = 0; s < kStrains; ++s) {
    for (int g = 0; g < kSegments; ++g) {
      c.domains.push_back("flu:st" + std::to_string(s) + ":seg" + std::to_string(g));
    }
  }
  // A complete is_a tree in heap order: term t's parent is (t-1)/fanout.
  int num_terms = 1;
  for (int d = 1, width = 1; d <= kTermDepth; ++d) num_terms += (width *= kTermFanout);
  c.obo = "[Term]\nid: " + TermId(0) + "\nname: brain region\n";
  c.term_parent.push_back(-1);
  for (int t = 1; t < num_terms; ++t) {
    int parent = (t - 1) / kTermFanout;
    c.term_parent.push_back(parent);
    c.obo += "\n[Term]\nid: " + TermId(t) + "\nname: region " + std::to_string(t) +
             "\nis_a: " + TermId(parent) + "\n";
  }

  ZipfWords zipf;
  c.anns.resize(annotations);
  // Influenza annotations are dealt to the domains in turn, and every
  // 1/kProteaseShare-th deal mentions protease, so every domain holds the
  // same number of protease annotations. The GRAPH join's cost, which
  // sets query_p99_us, then depends little on the seed; drawn at random,
  // the largest domains of a seed set it.
  const int protease_every = static_cast<int>(std::lround(1 / kProteaseShare));
  int influenza = 0;
  for (size_t i = 0; i < annotations; ++i) {
    AnnSpec& a = c.anns[i];
    a.title = "n" + std::to_string(i);
    if (rng.Double() < kBrainShare) {
      a.creator = "neuro" + std::to_string(rng.Uniform(0, 3));
      FillText(c, zipf, /*protease=*/false, &rng, &a);
      a.term = static_cast<int>(rng.Uniform(1, num_terms - 1));
      a.image = static_cast<int>(rng.Uniform(0, kImages - 1));
      int boxes = static_cast<int>(rng.Uniform(1, 3));
      for (int b = 0; b < boxes; ++b) {
        Box box;
        int64_t w = rng.Uniform(10, 10 + kAtlasExtent / 20);
        for (int d = 0; d < 3; ++d) {
          box.lo[static_cast<size_t>(d)] = rng.Uniform(0, kAtlasExtent * 9 / 10);
          box.hi[static_cast<size_t>(d)] = box.lo[static_cast<size_t>(d)] + w;
        }
        a.boxes.push_back(box);
      }
    } else {
      const int num_domains = static_cast<int>(c.domains.size());
      a.creator = "sci" + std::to_string(rng.Uniform(0, 5));
      FillText(c, zipf, (influenza / num_domains) % protease_every == 0, &rng, &a);
      a.domain = influenza++ % num_domains;
      int marks = static_cast<int>(rng.Uniform(1, 4));
      int64_t cursor = rng.Uniform(0, kSegmentLength / 2);
      for (int m = 0; m < marks; ++m) {
        std::pair<int64_t, int64_t> iv;
        if (rng.Double() < kGeneShare) {
          iv = kGenes[rng.Uniform(0, 2)];
        } else {
          int64_t lo = cursor;
          iv = {lo, std::min<int64_t>(lo + rng.Uniform(30, 300), kSegmentLength - 1)};
          cursor = iv.second + 1 + rng.Uniform(10, 200);
          if (iv.first > iv.second) break;
        }
        if (std::find(a.intervals.begin(), a.intervals.end(), iv) == a.intervals.end()) {
          a.intervals.push_back(iv);
        }
      }
    }
  }
  return c;
}

util::Status RegisterObjects(Graphitti& g, const Corpus& c, Objects* out) {
  *out = Objects();
  GRAPHITTI_RETURN_NOT_OK(g.RegisterCoordinateSystem(kAtlas, 3));
  GRAPHITTI_RETURN_NOT_OK(g.LoadOntology(kOntology, c.obo).status());
  Rng rng(c.seed ^ 0x5eedULL);
  for (size_t d = 0; d < c.domains.size(); ++d) {
    std::string residues(static_cast<size_t>(kSegmentLength), 'A');
    for (char& b : residues) b = "ACGT"[rng.Uniform(0, 3)];
    GRAPHITTI_ASSIGN_OR_RETURN(
        uint64_t id, g.IngestDnaSequence("FLU" + std::to_string(d),
                                         "strain" + std::to_string(d / kSegments),
                                         c.domains[d], std::move(residues)));
    out->dna.push_back(id);
  }
  for (int i = 0; i < kImages; ++i) {
    GRAPHITTI_ASSIGN_OR_RETURN(
        uint64_t id, g.IngestImage("img" + std::to_string(i), kAtlas, "confocal", 1024, 1024, 64));
    out->images.push_back(id);
  }
  for (int s = 0; s < kWriterSegments; ++s) {
    GRAPHITTI_ASSIGN_OR_RETURN(
        uint64_t id, g.IngestDnaSequence("WR" + std::to_string(s), "writer-lab",
                                         WriterDomain(s), "ACGTACGT"));
    out->writer.push_back(id);
  }
  return util::Status::OK();
}

std::vector<AnnotationBuilder> MakeBuilders(const Corpus& c, const Objects& objs) {
  std::vector<AnnotationBuilder> out(c.anns.size());
  for (size_t i = 0; i < c.anns.size(); ++i) {
    const AnnSpec& a = c.anns[i];
    AnnotationBuilder& b = out[i];
    b.Title(a.title).Creator(a.creator).Body(a.body);
    for (const auto& [lo, hi] : a.intervals) {
      b.MarkInterval(c.domains[static_cast<size_t>(a.domain)], lo, hi,
                     objs.dna[static_cast<size_t>(a.domain)]);
    }
    for (const Box& box : a.boxes) {
      b.MarkRegion(kAtlas,
                   graphitti::spatial::Rect::Make3D(
                       static_cast<double>(box.lo[0]), static_cast<double>(box.lo[1]),
                       static_cast<double>(box.lo[2]), static_cast<double>(box.hi[0]),
                       static_cast<double>(box.hi[1]), static_cast<double>(box.hi[2])),
                   objs.images[static_cast<size_t>(a.image)]);
    }
    if (a.term >= 0) b.OntologyReference(kOntology, TermId(a.term));
  }
  return out;
}

const char* ClassName(QClass c) {
  switch (c) {
    case QClass::kKeyword:
      return "keyword";
    case QClass::kIntervalWindow:
      return "interval_window";
    case QClass::kRegionWindow:
      return "region_window";
    case QClass::kTermBelow:
      return "term_below";
    case QClass::kFragments:
      return "fragments";
    case QClass::kGraphJoin:
      return "graph_join";
  }
  return "unknown";
}

std::vector<QuerySpec> MakeRound(const Corpus& c, size_t index, Rng* rng) {
  std::vector<QuerySpec> round;
  // Classes whose cost depends strongly on the parameter (word rank,
  // subtree, domain) step through it with the round index, so every run
  // covers the same spread of costs whatever the seed.
  const int r = static_cast<int>(index);
  auto keyword = [&](int word) {
    QuerySpec q;
    q.cls = QClass::kKeyword;
    q.word = word;
    q.text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + c.vocab[static_cast<size_t>(q.word)] + "\" }";
    round.push_back(q);
  };
  keyword(1 + r % 3);                                                  // common
  keyword(static_cast<int>(rng->Uniform(kVocabulary - 100, kVocabulary - 1)));  // rare
  for (int i = 0; i < 2; ++i) {
    QuerySpec q;
    q.cls = QClass::kIntervalWindow;
    q.domain = static_cast<int>(rng->Uniform(0, static_cast<int64_t>(c.domains.size()) - 1));
    q.lo = rng->Uniform(0, kSegmentLength - 300);
    q.hi = q.lo + rng->Uniform(100, 300);
    q.text = "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"" +
             c.domains[static_cast<size_t>(q.domain)] + "\" ; ?s OVERLAPS [" +
             std::to_string(q.lo) + ", " + std::to_string(q.hi) + "] }";
    round.push_back(q);
  }
  for (int i = 0; i < 2; ++i) {
    QuerySpec q;
    q.cls = QClass::kRegionWindow;
    for (size_t d = 0; d < 2; ++d) {
      q.box.lo[d] = rng->Uniform(0, kAtlasExtent - 2000);
      q.box.hi[d] = q.box.lo[d] + 2000;
    }
    q.box.lo[2] = 0;
    q.box.hi[2] = kAtlasExtent;
    q.text = "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"" + std::string(kAtlas) +
             "\" ; ?s OVERLAPS RECT [";
    for (size_t d = 0; d < 3; ++d) q.text += std::to_string(q.box.lo[d]) + ", ";
    for (size_t d = 0; d < 3; ++d) q.text += std::to_string(q.box.hi[d]) + (d < 2 ? ", " : "");
    q.text += "] }";
    round.push_back(q);
  }
  for (int i = 0; i < 2; ++i) {
    QuerySpec q;
    q.cls = QClass::kTermBelow;
    q.term = 1 + (2 * r + i) % (kTermFanout + kTermFanout * kTermFanout);  // levels 1 and 2
    q.text = "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"" + std::string(kOntology) +
             ":" + TermId(q.term) + "\" ; ?a REFERS ?t }";
    round.push_back(q);
  }
  {
    QuerySpec q;
    q.cls = QClass::kFragments;
    q.word = 20 + r % 40;
    q.text = "FIND FRAGMENTS ?a XPATH \"/annotation/dc:title\" WHERE { ?a CONTAINS \"" +
             c.vocab[static_cast<size_t>(q.word)] + "\" }";
    round.push_back(q);
  }
  {
    // The Fig. 3 protease query: two protease annotations on consecutive,
    // disjoint intervals of one segment, one connection subgraph per row.
    QuerySpec q;
    q.cls = QClass::kGraphJoin;
    q.domain = r % static_cast<int>(c.domains.size());
    const std::string& d = c.domains[static_cast<size_t>(q.domain)];
    q.text = "FIND GRAPH WHERE { ?a1 CONTAINS \"protease\" ; ?a2 CONTAINS \"protease\" ; "
             "?s1 IS REFERENT ; ?s1 DOMAIN \"" + d + "\" ; ?s2 IS REFERENT ; ?s2 DOMAIN \"" + d +
             "\" ; ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 } "
             "CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2) LIMIT " +
             std::to_string(kGraphPageSize) + " PAGE 1";
    // A fresh page, a revisit of page 1, and another fresh page, 3-40 in
    // turn: a flip's cost varies with the page as much as with the domain.
    q.flips = {2, 1, static_cast<size_t>(3 + r % 38)};
    round.push_back(q);
  }
  return round;
}

AnnotationBuilder WriterBuilder(uint64_t n, int segment, uint64_t object) {
  AnnotationBuilder b;
  int64_t lo = static_cast<int64_t>(n) * 4;
  b.Title("w" + std::to_string(n))
      .Creator("writer")
      .Body(std::string(kWriterKeyword) + " from the writer")
      .MarkInterval(WriterDomain(segment), lo, lo + 2, object);
  return b;
}

}  // namespace perfbench
