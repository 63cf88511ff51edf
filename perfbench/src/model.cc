#include "model.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace perfbench {

using graphitti::agraph::NodeRef;
using graphitti::query::QueryResult;
using graphitti::query::StopReason;
using graphitti::query::StopReasonName;
using graphitti::substructure::SubType;

RefKey IntervalKey(const std::string& domain, int64_t lo, int64_t hi) {
  return "i:" + domain + ":" + std::to_string(lo) + ":" + std::to_string(hi);
}

namespace {

RefKey BoxKey(const Box& box) {
  RefKey k = "r:";
  for (size_t d = 0; d < 3; ++d) k += std::to_string(box.lo[d]) + ",";
  for (size_t d = 0; d < 3; ++d) k += std::to_string(box.hi[d]) + (d < 2 ? "," : "");
  return k;
}

/// The key of an engine referent, or "" for a kind the corpus never marks.
RefKey KeyOf(const graphitti::substructure::Substructure& sub) {
  if (sub.type() == SubType::kInterval) {
    return IntervalKey(sub.domain(), sub.interval().lo, sub.interval().hi);
  }
  if (sub.type() == SubType::kRegion && sub.domain() == kAtlas && sub.rect().dims == 3) {
    Box box;
    for (size_t d = 0; d < 3; ++d) {
      box.lo[d] = std::llround(sub.rect().lo[d]);
      box.hi[d] = std::llround(sub.rect().hi[d]);
    }
    return BoxKey(box);
  }
  return "";
}

uint64_t EncodeNode(const NodeRef& n) {
  return (static_cast<uint64_t>(n.kind) << 56) | n.id;
}

/// Expected page count of a result with `items` items.
size_t PagesFor(const QuerySpec& q, size_t items) {
  if (q.cls == QClass::kGraphJoin) return (items + kGraphPageSize - 1) / kGraphPageSize;
  return items == 0 ? 0 : 1;
}

}  // namespace

Model::Model(const Corpus& c) : c_(c) {
  postings_.resize(c.vocab.size());
  // (interval, annotation) marks per domain, sorted and grouped below.
  std::vector<std::vector<std::pair<std::pair<int64_t, int64_t>, int>>> marks(c.domains.size());
  for (size_t i = 0; i < c.anns.size(); ++i) {
    const AnnSpec& a = c.anns[i];
    for (int w : a.words) postings_[static_cast<size_t>(w)].push_back(static_cast<int>(i));
    for (const auto& iv : a.intervals) {
      marks[static_cast<size_t>(a.domain)].push_back({iv, static_cast<int>(i)});
    }
    boxes_.insert(boxes_.end(), a.boxes.begin(), a.boxes.end());
  }
  domain_refs_.resize(c.domains.size());
  domain_ref_anns_.resize(c.domains.size());
  for (size_t d = 0; d < c.domains.size(); ++d) {
    std::sort(marks[d].begin(), marks[d].end());
    for (const auto& [iv, ann] : marks[d]) {
      if (domain_refs_[d].empty() || domain_refs_[d].back() != iv) {
        domain_refs_[d].push_back(iv);
        domain_ref_anns_[d].emplace_back();
        all_keys_.push_back(IntervalKey(c.domains[d], iv.first, iv.second));
      }
      domain_ref_anns_[d].back().push_back(ann);
    }
  }
  auto box_less = [](const Box& x, const Box& y) {
    return std::tie(x.lo, x.hi) < std::tie(y.lo, y.hi);
  };
  std::sort(boxes_.begin(), boxes_.end(), box_less);
  boxes_.erase(std::unique(boxes_.begin(), boxes_.end(),
                           [](const Box& x, const Box& y) { return x.lo == y.lo && x.hi == y.hi; }),
               boxes_.end());
  for (const Box& b : boxes_) all_keys_.push_back(BoxKey(b));
  std::sort(all_keys_.begin(), all_keys_.end());
  term_children_.resize(c.term_parent.size());
  for (size_t t = 0; t < c.term_parent.size(); ++t) {
    if (c.term_parent[t] >= 0) {
      term_children_[static_cast<size_t>(c.term_parent[t])].push_back(static_cast<int>(t));
    }
  }
}

std::vector<int> Model::Keyword(int word) const { return postings_[static_cast<size_t>(word)]; }

std::vector<RefKey> Model::IntervalWindow(int domain, int64_t lo, int64_t hi) const {
  std::vector<RefKey> out;
  for (const auto& [rlo, rhi] : DomainRefs(domain)) {
    if (rlo <= hi && lo <= rhi) {
      out.push_back(IntervalKey(c_.domains[static_cast<size_t>(domain)], rlo, rhi));
    }
  }
  return out;
}

std::vector<RefKey> Model::RegionWindow(const Box& w) const {
  std::vector<RefKey> out;
  for (const Box& b : boxes_) {
    bool overlaps = true;
    for (size_t d = 0; d < 3; ++d) {
      if (b.lo[d] > w.hi[d] || w.lo[d] > b.hi[d]) overlaps = false;
    }
    if (overlaps) out.push_back(BoxKey(b));
  }
  return out;
}

std::vector<int> Model::TermBelow(int term) const {
  std::vector<bool> below(term_children_.size(), false);
  std::vector<int> frontier = {term};
  below[static_cast<size_t>(term)] = true;
  while (!frontier.empty()) {  // BFS down the is_a tree
    std::vector<int> next;
    for (int t : frontier) {
      for (int ch : term_children_[static_cast<size_t>(t)]) {
        if (!below[static_cast<size_t>(ch)]) {
          below[static_cast<size_t>(ch)] = true;
          next.push_back(ch);
        }
      }
    }
    frontier = std::move(next);
  }
  std::vector<int> out;
  for (size_t i = 0; i < c_.anns.size(); ++i) {
    int t = c_.anns[i].term;
    if (t >= 0 && below[static_cast<size_t>(t)]) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<Model::JoinRow> Model::GraphJoin(int domain) const {
  const auto& refs = DomainRefs(domain);
  const auto& ref_anns = domain_ref_anns_[static_cast<size_t>(domain)];
  // Per referent, the protease annotations marking it (word 0 is "protease").
  std::vector<std::vector<int>> protease(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) {
    for (int a : ref_anns[r]) {
      const std::vector<int>& words = c_.anns[static_cast<size_t>(a)].words;
      if (!words.empty() && words.front() == 0) protease[r].push_back(a);
    }
  }
  std::vector<JoinRow> rows;
  for (size_t r1 = 0; r1 < refs.size(); ++r1) {
    if (protease[r1].empty()) continue;
    for (size_t r2 = 0; r2 < refs.size(); ++r2) {
      if (protease[r2].empty()) continue;
      bool consecutive = refs[r1].first < refs[r2].first;
      bool disjoint = refs[r1].second < refs[r2].first || refs[r2].second < refs[r1].first;
      if (!consecutive || !disjoint) continue;
      for (int a1 : protease[r1]) {
        for (int a2 : protease[r2]) rows.push_back({a1, a2, r1, r2});
      }
    }
  }
  return rows;
}

std::string Binding::Bind(const Model& m, std::vector<graphitti::annotation::AnnotationId> ann_ids,
                          const QueryResult& refs, const std::vector<RefKey>& extra_keys) {
  m_ = &m;
  ann_ids_ = std::move(ann_ids);
  ref_id_.clear();
  join_rows_.clear();
  if (ann_ids_.size() != m.corpus().anns.size()) return "annotation id count differs";
  for (const auto& item : refs.items) {
    RefKey key = KeyOf(item.substructure);
    if (key.empty()) return "referent " + std::to_string(item.referent_id) + " has a foreign kind";
    if (!ref_id_.emplace(key, item.referent_id).second) return "duplicate referent " + key;
  }
  size_t expected = m.all_keys().size() + extra_keys.size();
  if (ref_id_.size() != expected) {
    return "engine holds " + std::to_string(ref_id_.size()) + " referents, model " +
           std::to_string(expected);
  }
  for (const RefKey& k : m.all_keys()) {
    if (ref_id_.count(k) == 0) return "missing referent " + k;
  }
  for (const RefKey& k : extra_keys) {
    if (ref_id_.count(k) == 0) return "missing writer referent " + k;
  }
  return "";
}

std::vector<uint64_t> Binding::Contents(const std::vector<int>& anns) const {
  std::vector<uint64_t> out;
  out.reserve(anns.size());
  for (int a : anns) out.push_back(ann_ids_[static_cast<size_t>(a)]);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> Binding::Referents(const std::vector<RefKey>& keys) const {
  std::vector<uint64_t> out;
  out.reserve(keys.size());
  for (const RefKey& k : keys) out.push_back(ref_id_.at(k));
  std::sort(out.begin(), out.end());
  return out;
}

Expected Binding::For(const QuerySpec& q) const {
  Expected e;
  switch (q.cls) {
    case QClass::kKeyword:
      e.ids = Contents(m_->Keyword(q.word));
      break;
    case QClass::kIntervalWindow:
      e.ids = Referents(m_->IntervalWindow(q.domain, q.lo, q.hi));
      break;
    case QClass::kRegionWindow:
      e.ids = Referents(m_->RegionWindow(q.box));
      break;
    case QClass::kTermBelow:
      e.ids = Contents(m_->TermBelow(q.term));
      break;
    case QClass::kFragments:
      for (int a : m_->Keyword(q.word)) {
        e.fragments.push_back({ann_ids_[static_cast<size_t>(a)],
                               "<dc:title>" + m_->corpus().anns[static_cast<size_t>(a)].title +
                                   "</dc:title>"});
      }
      std::sort(e.fragments.begin(), e.fragments.end());
      break;
    case QClass::kGraphJoin: {
      auto it = join_rows_.find(q.domain);
      if (it == join_rows_.end()) {
        const auto& refs = m_->DomainRefs(q.domain);
        const std::string& domain = m_->corpus().domains[static_cast<size_t>(q.domain)];
        std::vector<Row> rows;
        for (const Model::JoinRow& jr : m_->GraphJoin(q.domain)) {
          std::vector<uint64_t> t = {
              EncodeNode(NodeRef::Content(ann_ids_[static_cast<size_t>(jr.a1)])),
              EncodeNode(NodeRef::Content(ann_ids_[static_cast<size_t>(jr.a2)])),
              EncodeNode(NodeRef::Referent(
                  ref_id_.at(IntervalKey(domain, refs[jr.r1].first, refs[jr.r1].second)))),
              EncodeNode(NodeRef::Referent(
                  ref_id_.at(IntervalKey(domain, refs[jr.r2].first, refs[jr.r2].second))))};
          std::sort(t.begin(), t.end());
          t.erase(std::unique(t.begin(), t.end()), t.end());
          Row row{};
          std::copy(t.begin(), t.end(), row.begin());
          rows.push_back(row);
        }
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        it = join_rows_.emplace(q.domain, std::move(rows)).first;
      }
      e.rows = it->second;
      break;
    }
  }
  return e;
}

namespace {

/// The whole result's items against the model, as sets.
std::string CheckItems(const QuerySpec& q, const Expected& e, const QueryResult& r) {
  auto differ = [](const char* what, size_t got, size_t want) {
    return std::to_string(got) + " " + what + ", model " + std::to_string(want) +
           (got == want ? " (they differ)" : "");
  };
  switch (q.cls) {
    case QClass::kKeyword:
    case QClass::kTermBelow:
    case QClass::kIntervalWindow:
    case QClass::kRegionWindow: {
      bool contents = q.cls == QClass::kKeyword || q.cls == QClass::kTermBelow;
      std::vector<uint64_t> got;
      got.reserve(r.items.size());
      for (const auto& item : r.items) got.push_back(contents ? item.content_id : item.referent_id);
      std::sort(got.begin(), got.end());
      return got == e.ids ? "" : differ("items", got.size(), e.ids.size());
    }
    case QClass::kFragments: {
      std::vector<std::pair<uint64_t, std::string>> got;
      got.reserve(r.items.size());
      for (const auto& item : r.items) got.push_back({item.content_id, item.fragment});
      std::sort(got.begin(), got.end());
      return got == e.fragments ? "" : differ("fragments", got.size(), e.fragments.size());
    }
    case QClass::kGraphJoin: {
      std::vector<Row> got;
      got.reserve(r.items.size());
      for (const auto& item : r.items) {
        if (item.terminals.size() > 4 || item.terminals.empty()) return "row of wrong width";
        Row row{};
        for (size_t i = 0; i < item.terminals.size(); ++i) row[i] = EncodeNode(item.terminals[i]);
        got.push_back(row);
      }
      std::sort(got.begin(), got.end());
      return got == e.rows ? "" : differ("rows", got.size(), e.rows.size());
    }
  }
  return "unknown query class";
}

}  // namespace

std::string CheckResult(const QuerySpec& q, const Expected& e, const QueryResult& r,
                        size_t page, bool check_items) {
  if (r.stats.stop_reason != StopReason::kCompleted) {
    return std::string("stopped: ") + StopReasonName(r.stats.stop_reason);
  }
  if (check_items) {
    std::string why = CheckItems(q, e, r);
    if (!why.empty()) return why;
  }
  if (q.cls == QClass::kGraphJoin) {
    for (const auto& item : r.items) {
      if (!item.subgraph_ready) continue;
      for (const NodeRef& t : item.terminals) {
        if (!item.subgraph.ContainsNode(t)) return "subgraph misses terminal " + t.ToString();
      }
    }
  }
  // Paging: the result sits on the requested page (clamped), and every
  // item of that page is materialized.
  size_t pages = PagesFor(q, e.ids.size() + e.fragments.size() + e.rows.size());
  size_t want_page = pages == 0 ? 0 : std::min(std::max<size_t>(page, 1), pages);
  if (r.total_pages != pages || r.page != want_page) {
    return "on page " + std::to_string(r.page) + "/" + std::to_string(r.total_pages) +
           ", model " + std::to_string(want_page) + "/" + std::to_string(pages);
  }
  size_t first = want_page == 0 ? 0 : (want_page - 1) * r.page_size;
  size_t count = want_page == 0 ? 0 : std::min(r.page_size, r.items.size() - first);
  if (r.page_first != first || r.page_count != count) return "page slice differs";
  if (q.cls == QClass::kGraphJoin) {
    for (const auto& item : r.Page()) {
      if (!item.subgraph_ready) return "page item not materialized";
    }
  }
  return "";
}

}  // namespace perfbench
