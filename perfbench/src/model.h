// The answer model: exact answers for every query of the mix, computed
// from the generated inputs alone with vectors, linear scans and plain BFS,
// and the checks that hold engine results against them.
//
// The model works in the corpus's own terms (annotation indices, referent
// keys). A Binding maps those onto one engine's ids: annotation ids come
// back from CommitBatch, referent ids from one REFERENTS query whose
// answer is itself checked against the model.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <array>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus.h"
#include "query/result.h"

namespace perfbench {

/// A referent's identity in the model: its substructure, as text.
using RefKey = std::string;
RefKey IntervalKey(const std::string& domain, int64_t lo, int64_t hi);

/// One GRAPH row: its sorted distinct terminals, each encoded as
/// kind << 56 | id, padded with zeros.
using Row = std::array<uint64_t, 4>;

class Model {
 public:
  explicit Model(const Corpus& c);

  const Corpus& corpus() const { return c_; }
  /// Every distinct referent key of the corpus, sorted.
  const std::vector<RefKey>& all_keys() const { return all_keys_; }

  std::vector<int> Keyword(int word) const;
  std::vector<RefKey> IntervalWindow(int domain, int64_t lo, int64_t hi) const;
  std::vector<RefKey> RegionWindow(const Box& window) const;
  std::vector<int> TermBelow(int term) const;

  /// A GRAPH row in model terms: the protease annotations bound to ?a1 and
  /// ?a2 and the two referents, as indices into DomainRefs(domain).
  struct JoinRow {
    int a1, a2;
    size_t r1, r2;
  };
  std::vector<JoinRow> GraphJoin(int domain) const;
  const std::vector<std::pair<int64_t, int64_t>>& DomainRefs(int domain) const {
    return domain_refs_[static_cast<size_t>(domain)];
  }

 private:
  const Corpus& c_;
  std::vector<RefKey> all_keys_;
  std::vector<std::vector<int>> postings_;  // word -> annotation indices
  // Distinct intervals per domain, and per interval the annotations marking it.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> domain_refs_;
  std::vector<std::vector<std::vector<int>>> domain_ref_anns_;
  std::vector<Box> boxes_;  // distinct boxes
  std::vector<std::vector<int>> term_children_;
};

/// One query's expected answer in one engine's ids.
struct Expected {
  std::vector<uint64_t> ids;  // contents or referents, sorted
  std::vector<std::pair<uint64_t, std::string>> fragments;  // sorted
  std::vector<Row> rows;      // graph_join, sorted
};

class Binding {
 public:
  /// `ann_ids[i]` is the engine id of corpus annotation i. `refs` is the
  /// answer of "FIND REFERENTS WHERE { ?s IS REFERENT }"; `extra_keys` are
  /// the referents of annotations committed beside the corpus (the
  /// writer's). Returns "" when the engine's referents are exactly the
  /// model's, else what differs.
  std::string Bind(const Model& m, std::vector<graphitti::annotation::AnnotationId> ann_ids,
                   const graphitti::query::QueryResult& refs,
                   const std::vector<RefKey>& extra_keys);

  Expected For(const QuerySpec& q) const;

 private:
  std::vector<uint64_t> Contents(const std::vector<int>& anns) const;
  std::vector<uint64_t> Referents(const std::vector<RefKey>& keys) const;

  const Model* m_ = nullptr;
  std::vector<graphitti::annotation::AnnotationId> ann_ids_;
  std::unordered_map<RefKey, uint64_t> ref_id_;
  mutable std::map<int, std::vector<Row>> join_rows_;  // per domain, on first use
};

/// Checks a result against its expected answer: the items of the whole
/// result (when `check_items`; a page flip does not change them), the page
/// it sits on, and every connection subgraph materialized so far (each must
/// contain its row's terminals). `page` is the page last requested.
/// Returns "" when it matches, else the first disagreement.
std::string CheckResult(const QuerySpec& q, const Expected& e,
                        const graphitti::query::QueryResult& r, size_t page, bool check_items);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
