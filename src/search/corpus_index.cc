#include "search/corpus_index.h"

#include <algorithm>

#include "common/logging.h"
#include "search/posting_cursor.h"
#include "text/tokenizer.h"

namespace webtab {

namespace {
/// Works for both the id-keyed maps and the transparent token maps;
/// `key` may be a string_view probing a std::string-keyed map without
/// allocating.
template <typename Map, typename K>
auto FindOrEmpty(const Map& map, const K& key)
    -> std::span<const typename Map::mapped_type::value_type> {
  auto it = map.find(key);
  if (it == map.end()) return {};
  return std::span<const typename Map::mapped_type::value_type>(it->second);
}
}  // namespace

CorpusIndex::CorpusIndex(std::vector<AnnotatedTable> tables,
                         ClosureCache* closure)
    : tables_(std::move(tables)) {
  for (int i = 0; i < static_cast<int>(tables_.size()); ++i) {
    const Table& table = tables_[i].table;
    const TableAnnotation& ann = tables_[i].annotation;

    for (const std::string& token : Tokenize(table.context())) {
      auto& postings = context_postings_[token];
      if (postings.empty() || postings.back() != i) postings.push_back(i);
    }
    for (int c = 0; c < table.cols(); ++c) {
      for (const std::string& token : Tokenize(table.header(c))) {
        header_postings_[token].push_back(ColumnRef{i, c});
      }
      for (int r = 0; r < table.rows(); ++r) {
        // Distinct tokens only: `min_tokens` must be the same
        // distinct-token count CellMatchesText's Jaccard uses.
        std::vector<std::string> toks = Tokenize(table.cell(r, c));
        std::sort(toks.begin(), toks.end());
        toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
        const int32_t na = static_cast<int32_t>(toks.size());
        if (na == 0) {
          // Sentinel row under the empty token: this column has a cell
          // that normalizes to "", the only thing an empty-text target
          // can exact-match. min_tokens is unused here but must pass
          // the >= 1 snapshot validation.
          auto& support = cell_token_postings_[std::string()];
          if (support.empty() || support.back().table != i ||
              support.back().col != c) {
            support.push_back(CellTokenRef{i, c, 1, 0, 0});
          }
          continue;
        }
        for (const std::string& token : toks) {
          auto& support = cell_token_postings_[token];
          if (support.empty() || support.back().table != i ||
              support.back().col != c) {
            support.push_back(CellTokenRef{i, c, na, 0, 0});
          } else if (na < support.back().min_tokens) {
            support.back().min_tokens = na;
          }
          CellTokenRef& entry = support.back();
          for (const std::string& other : toks) {
            if (other != token) entry.cooc |= CellTokenMask(other);
          }
        }
      }
      TypeId t = ann.TypeOf(c);
      if (t != kNa) {
        if (closure != nullptr) {
          for (TypeId anc : closure->TypeAncestorsOfType(t)) {
            type_postings_[anc].push_back(ColumnRef{i, c});
          }
        } else {
          type_postings_[t].push_back(ColumnRef{i, c});
        }
      }
      for (int r = 0; r < table.rows(); ++r) {
        EntityId e = ann.EntityOf(r, c);
        if (e != kNa) entity_postings_[e].push_back(CellRef{i, r, c});
      }
    }
    for (const auto& [pair, rel] : ann.relations) {
      if (rel.is_na()) continue;
      relation_postings_[rel.relation].push_back(
          RelationRef{i, pair.first, pair.second, rel.swapped ? 1 : 0});
    }
  }

  // Every postings list is table-sorted by construction (tables are
  // indexed in ascending order), which the search kernel's galloping
  // cursors rely on (posting_cursor.h) and the snapshot writer
  // serializes verbatim. Verify the invariant once at build time so a
  // future build-order change fails loudly here instead of silently
  // corrupting rankings.
  auto check = [](auto& map, const char* what) {
    for (const auto& [key, postings] : map) {
      int32_t prev = -1;
      for (const auto& ref : postings) {
        int32_t table = search_internal::PostingTable(ref);
        WEBTAB_CHECK(table >= prev)
            << what << " postings out of table order";
        prev = table;
      }
    }
  };
  check(header_postings_, "header");
  check(context_postings_, "context");
  check(type_postings_, "type");
  check(relation_postings_, "relation");
  check(entity_postings_, "entity");
  check(cell_token_postings_, "cell token");
}

std::span<const ColumnRef> CorpusIndex::HeaderPostings(
    std::string_view token) const {
  return FindOrEmpty(header_postings_, token);
}

std::span<const int32_t> CorpusIndex::ContextPostings(
    std::string_view token) const {
  return FindOrEmpty(context_postings_, token);
}

std::span<const ColumnRef> CorpusIndex::TypePostings(TypeId t) const {
  return FindOrEmpty(type_postings_, t);
}

std::span<const RelationRef> CorpusIndex::RelationPostings(
    RelationId b) const {
  return FindOrEmpty(relation_postings_, b);
}

std::span<const CellRef> CorpusIndex::EntityPostings(EntityId e) const {
  return FindOrEmpty(entity_postings_, e);
}

std::span<const CellTokenRef> CorpusIndex::CellTokenPostings(
    std::string_view token) const {
  return FindOrEmpty(cell_token_postings_, token);
}

}  // namespace webtab
