#include "storage/snapshot_writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string_view>

#include "storage/format.h"

namespace webtab {
namespace storage {

namespace {

/// Accumulates one section: a fixed header at offset 0 followed by
/// 8-byte-aligned blobs. BlobRef offsets are section-relative.
class SectionBuilder {
 public:
  explicit SectionBuilder(size_t header_size) {
    bytes_.resize(Align(header_size), 0);
  }

  template <typename T>
  BlobRef Add(std::span<const T> data) {
    // std::pair<int32, int32> (relation tuples) is standard-layout but
    // not formally trivially copyable; byte serialization is still exact.
    static_assert(std::is_standard_layout_v<T> &&
                  std::is_trivially_destructible_v<T>);
    BlobRef ref;
    ref.offset = bytes_.size();
    ref.count = data.size();
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(data.data());
    bytes_.insert(bytes_.end(), raw, raw + data.size_bytes());
    Pad();
    return ref;
  }

  template <typename T>
  BlobRef Add(const std::vector<T>& data) {
    return Add(std::span<const T>(data));
  }

  StringArenaRef AddArena(const std::vector<uint64_t>& ends,
                          const std::string& chars) {
    StringArenaRef ref;
    ref.ends = Add(ends);
    ref.bytes.offset = bytes_.size();
    ref.bytes.count = chars.size();
    bytes_.insert(bytes_.end(), chars.begin(), chars.end());
    Pad();
    return ref;
  }

  void FinishHeader(const void* header, size_t size) {
    std::memcpy(bytes_.data(), header, size);
  }

  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  static size_t Align(size_t n) { return (n + 7) & ~size_t{7}; }
  void Pad() { bytes_.resize(Align(bytes_.size()), 0); }

  std::vector<uint8_t> bytes_;
};

/// Incrementally builds a string arena (ends + bytes).
struct ArenaAccum {
  std::vector<uint64_t> ends;
  std::string chars;

  void Add(std::string_view s) {
    chars.append(s);
    ends.push_back(chars.size());
  }
  uint64_t size() const { return ends.size(); }
};

/// Ids 0..n-1 sorted by their name, for binary-searched name lookup.
template <typename NameFn>
std::vector<int32_t> SortIdsByName(int32_t n, NameFn name_of) {
  std::vector<int32_t> ids(n);
  for (int32_t i = 0; i < n; ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(), [&](int32_t a, int32_t b) {
    std::string_view na = name_of(a), nb = name_of(b);
    if (na != nb) return na < nb;
    return a < b;
  });
  return ids;
}

std::vector<uint8_t> BuildCatalogSection(const CatalogView& cat) {
  SectionBuilder sb(sizeof(CatalogHeader));
  CatalogHeader h;
  h.num_types = cat.num_types();
  h.num_entities = cat.num_entities();
  h.num_relations = cat.num_relations();
  h.root_type = cat.root_type();
  h.num_tuples = cat.num_tuples();

  // --- Types ---
  ArenaAccum type_names, type_lemmas;
  std::vector<uint64_t> type_lemma_ends;
  std::vector<uint64_t> parent_ends, child_ends, dirent_ends;
  std::vector<TypeId> parents, children;
  std::vector<EntityId> dirents;
  for (TypeId t = 0; t < h.num_types; ++t) {
    type_names.Add(cat.TypeName(t));
    for (int32_t i = 0; i < cat.NumTypeLemmas(t); ++i) {
      type_lemmas.Add(cat.TypeLemma(t, i));
    }
    type_lemma_ends.push_back(type_lemmas.size());
    auto ps = cat.TypeParents(t);
    parents.insert(parents.end(), ps.begin(), ps.end());
    parent_ends.push_back(parents.size());
    auto cs = cat.TypeChildren(t);
    children.insert(children.end(), cs.begin(), cs.end());
    child_ends.push_back(children.size());
    auto es = cat.TypeDirectEntities(t);
    dirents.insert(dirents.end(), es.begin(), es.end());
    dirent_ends.push_back(dirents.size());
  }
  h.type_names = sb.AddArena(type_names.ends, type_names.chars);
  h.type_lemmas = sb.AddArena(type_lemmas.ends, type_lemmas.chars);
  h.type_lemma_ends = sb.Add(type_lemma_ends);
  h.type_parents = CsrRef{sb.Add(parent_ends), sb.Add(parents)};
  h.type_children = CsrRef{sb.Add(child_ends), sb.Add(children)};
  h.type_direct_entities = CsrRef{sb.Add(dirent_ends), sb.Add(dirents)};

  // --- Entities ---
  ArenaAccum entity_names, entity_lemmas;
  std::vector<uint64_t> entity_lemma_ends, dirtype_ends;
  std::vector<TypeId> dirtypes;
  for (EntityId e = 0; e < h.num_entities; ++e) {
    entity_names.Add(cat.EntityName(e));
    for (int32_t i = 0; i < cat.NumEntityLemmas(e); ++i) {
      entity_lemmas.Add(cat.EntityLemma(e, i));
    }
    entity_lemma_ends.push_back(entity_lemmas.size());
    auto ts = cat.EntityDirectTypes(e);
    dirtypes.insert(dirtypes.end(), ts.begin(), ts.end());
    dirtype_ends.push_back(dirtypes.size());
  }
  h.entity_names = sb.AddArena(entity_names.ends, entity_names.chars);
  h.entity_lemmas = sb.AddArena(entity_lemmas.ends, entity_lemmas.chars);
  h.entity_lemma_ends = sb.Add(entity_lemma_ends);
  h.entity_direct_types = CsrRef{sb.Add(dirtype_ends), sb.Add(dirtypes)};

  // --- Relations: meta + tuples + derived indexes ---
  ArenaAccum relation_names;
  std::vector<RelationMetaDisk> metas;
  std::vector<uint64_t> tuple_ends;
  std::vector<EntityPair> tuples;
  std::vector<uint64_t> fwd_key_ends, fwd_value_ends;
  std::vector<EntityId> fwd_keys, fwd_values;
  std::vector<uint64_t> rev_key_ends, rev_value_ends;
  std::vector<EntityId> rev_keys, rev_values;
  for (RelationId b = 0; b < h.num_relations; ++b) {
    relation_names.Add(cat.RelationName(b));
    RelationMetaDisk meta;
    meta.subject_type = cat.RelationSubjectType(b);
    meta.object_type = cat.RelationObjectType(b);
    meta.cardinality = static_cast<int32_t>(cat.RelationCardinalityOf(b));
    meta.distinct_subjects = static_cast<int32_t>(cat.DistinctSubjects(b));
    meta.distinct_objects = static_cast<int32_t>(cat.DistinctObjects(b));
    metas.push_back(meta);

    auto ts = cat.RelationTuples(b);
    tuples.insert(tuples.end(), ts.begin(), ts.end());
    tuple_ends.push_back(tuples.size());

    // Forward index: tuples are sorted by (subject, object), so one
    // linear grouping pass yields sorted keys with sorted object runs.
    for (size_t i = 0; i < ts.size();) {
      EntityId subject = ts[i].first;
      fwd_keys.push_back(subject);
      while (i < ts.size() && ts[i].first == subject) {
        fwd_values.push_back(ts[i].second);
        ++i;
      }
      fwd_value_ends.push_back(fwd_values.size());
    }
    fwd_key_ends.push_back(fwd_keys.size());

    // Reverse index: re-sort by (object, subject).
    std::vector<EntityPair> rev(ts.begin(), ts.end());
    std::sort(rev.begin(), rev.end(),
              [](const EntityPair& a, const EntityPair& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    for (size_t i = 0; i < rev.size();) {
      EntityId object = rev[i].second;
      rev_keys.push_back(object);
      while (i < rev.size() && rev[i].second == object) {
        rev_values.push_back(rev[i].first);
        ++i;
      }
      rev_value_ends.push_back(rev_values.size());
    }
    rev_key_ends.push_back(rev_keys.size());
  }
  h.relation_names = sb.AddArena(relation_names.ends, relation_names.chars);
  h.relation_meta = sb.Add(metas);
  h.tuples = CsrRef{sb.Add(tuple_ends), sb.Add(tuples)};
  h.fwd_key_ends = sb.Add(fwd_key_ends);
  h.fwd_keys = sb.Add(fwd_keys);
  h.fwd_value_ends = sb.Add(fwd_value_ends);
  h.fwd_values = sb.Add(fwd_values);
  h.rev_key_ends = sb.Add(rev_key_ends);
  h.rev_keys = sb.Add(rev_keys);
  h.rev_value_ends = sb.Add(rev_value_ends);
  h.rev_values = sb.Add(rev_values);

  // Pair index: both backends hold it sorted, so it is copied as is.
  const PairIndex pairs = cat.pair_index();
  h.pair_keys = sb.Add(pairs.keys);
  h.pair_rel_ends = sb.Add(pairs.rel_ends);
  h.pair_rels = sb.Add(pairs.rels);

  h.types_by_name = sb.Add(SortIdsByName(
      h.num_types, [&](int32_t t) { return cat.TypeName(t); }));
  h.entities_by_name = sb.Add(SortIdsByName(
      h.num_entities, [&](int32_t e) { return cat.EntityName(e); }));
  h.relations_by_name = sb.Add(SortIdsByName(
      h.num_relations, [&](int32_t b) { return cat.RelationName(b); }));

  sb.FinishHeader(&h, sizeof(h));
  return sb.TakeBytes();
}

std::vector<uint8_t> BuildLemmaIndexSection(const LemmaIndex& index) {
  SectionBuilder sb(sizeof(LemmaIndexHeader));
  LemmaIndexHeader h;
  const Vocabulary& vocab = *index.vocabulary();
  h.num_postings = index.num_postings();
  h.num_documents = vocab.num_documents();
  h.num_tokens = vocab.size();

  ArenaAccum token_texts;
  std::vector<int64_t> doc_freq;
  for (TokenId t = 0; t < h.num_tokens; ++t) {
    token_texts.Add(vocab.TokenText(t));
    doc_freq.push_back(vocab.DocumentFrequency(t));
  }
  h.token_texts = sb.AddArena(token_texts.ends, token_texts.chars);
  h.token_doc_freq = sb.Add(doc_freq);
  h.tokens_by_text = sb.Add(SortIdsByName(
      static_cast<int32_t>(h.num_tokens),
      [&](int32_t t) { return std::string_view(vocab.TokenText(t)); }));

  std::vector<uint64_t> ent_ends, typ_ends;
  std::vector<LemmaPosting> ent_vals, typ_vals;
  for (TokenId t = 0; t < h.num_tokens; ++t) {
    auto ep = index.EntityPostingsForToken(t);
    ent_vals.insert(ent_vals.end(), ep.begin(), ep.end());
    ent_ends.push_back(ent_vals.size());
    auto tp = index.TypePostingsForToken(t);
    typ_vals.insert(typ_vals.end(), tp.begin(), tp.end());
    typ_ends.push_back(typ_vals.size());
  }
  h.entity_postings = CsrRef{sb.Add(ent_ends), sb.Add(ent_vals)};
  h.type_postings = CsrRef{sb.Add(typ_ends), sb.Add(typ_vals)};

  sb.FinishHeader(&h, sizeof(h));
  return sb.TakeBytes();
}

/// Serializes an unordered postings map with sortable keys: emits
/// (sorted keys, CSR of the per-key vectors in stored order). Stored
/// order is the CorpusIndex build order, i.e. table-sorted — the
/// CorpusView ordering contract OpenValidated re-checks on open.
template <typename K, typename V>
void AddKeyedPostings(SectionBuilder* sb,
                      const std::unordered_map<K, std::vector<V>>& map,
                      BlobRef* keys_out, CsrRef* postings_out) {
  std::vector<K> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> ends;
  std::vector<V> values;
  for (const K& k : keys) {
    const auto& v = map.at(k);
    values.insert(values.end(), v.begin(), v.end());
    ends.push_back(values.size());
  }
  *keys_out = sb->Add(keys);
  *postings_out = CsrRef{sb->Add(ends), sb->Add(values)};
}

/// String-keyed variant: keys become a sorted token arena.
template <typename MapT>
void AddTokenPostings(SectionBuilder* sb, const MapT& map,
                      StringArenaRef* tokens_out, CsrRef* postings_out) {
  using V = typename MapT::mapped_type::value_type;
  std::vector<const std::string*> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(&k);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  ArenaAccum arena;
  std::vector<uint64_t> ends;
  std::vector<V> values;
  for (const std::string* k : keys) {
    arena.Add(*k);
    const auto& v = map.at(*k);
    values.insert(values.end(), v.begin(), v.end());
    ends.push_back(values.size());
  }
  *tokens_out = sb->AddArena(arena.ends, arena.chars);
  *postings_out = CsrRef{sb->Add(ends), sb->Add(values)};
}

std::vector<uint8_t> BuildCorpusSection(const CorpusIndex& corpus) {
  SectionBuilder sb(sizeof(CorpusHeader));
  CorpusHeader h;
  h.num_tables = corpus.num_tables();

  std::vector<TableMetaDisk> metas;
  ArenaAccum cells, headers, contexts;
  std::vector<TypeId> column_types;
  std::vector<EntityId> cell_entities;
  std::vector<uint64_t> rel_ends;
  std::vector<TableRelationDisk> rels;
  for (int t = 0; t < h.num_tables; ++t) {
    const AnnotatedTable& at = corpus.table(t);
    TableMetaDisk meta;
    meta.id = at.table.id();
    meta.rows = at.table.rows();
    meta.cols = at.table.cols();
    meta.cell_start = cells.size();
    meta.col_start = headers.size();
    meta.has_headers = at.table.has_headers() ? 1 : 0;
    metas.push_back(meta);
    for (int r = 0; r < meta.rows; ++r) {
      for (int c = 0; c < meta.cols; ++c) {
        cells.Add(at.table.cell(r, c));
        cell_entities.push_back(at.annotation.EntityOf(r, c));
      }
    }
    for (int c = 0; c < meta.cols; ++c) {
      headers.Add(at.table.header(c));
      column_types.push_back(at.annotation.TypeOf(c));
    }
    contexts.Add(at.table.context());
    // std::map iterates pairs in (c1, c2) order; skip explicit na
    // entries (they decode identically to absent ones).
    for (const auto& [pair, rel] : at.annotation.relations) {
      if (rel.is_na()) continue;
      rels.push_back(TableRelationDisk{pair.first, pair.second,
                                       rel.relation, rel.swapped ? 1 : 0});
    }
    rel_ends.push_back(rels.size());
  }
  h.table_meta = sb.Add(metas);
  h.cells = sb.AddArena(cells.ends, cells.chars);
  h.headers = sb.AddArena(headers.ends, headers.chars);
  h.contexts = sb.AddArena(contexts.ends, contexts.chars);
  h.column_types = sb.Add(column_types);
  h.cell_entities = sb.Add(cell_entities);
  h.table_relations = CsrRef{sb.Add(rel_ends), sb.Add(rels)};

  AddTokenPostings(&sb, corpus.header_postings_map(), &h.header_tokens,
                   &h.header_postings);
  AddTokenPostings(&sb, corpus.context_postings_map(), &h.context_tokens,
                   &h.context_postings);
  AddKeyedPostings(&sb, corpus.type_postings_map(), &h.type_keys,
                   &h.type_postings);
  AddKeyedPostings(&sb, corpus.relation_postings_map(), &h.relation_keys,
                   &h.relation_postings);
  AddKeyedPostings(&sb, corpus.entity_postings_map(), &h.entity_keys,
                   &h.entity_postings);

  sb.FinishHeader(&h, sizeof(h));
  return sb.TakeBytes();
}

/// Builds the match-support section: the cell-token postings, in
/// sorted token order like every token-keyed corpus list. The reserved
/// header fields stay zero.
std::vector<uint8_t> BuildMatchSupportSection(const CorpusIndex& corpus) {
  SectionBuilder sb(sizeof(MatchSupportHeader));
  MatchSupportHeader h;
  AddTokenPostings(&sb, corpus.cell_token_postings_map(), &h.cell_tokens,
                   &h.cell_token_postings);

  sb.FinishHeader(&h, sizeof(h));
  return sb.TakeBytes();
}

}  // namespace

SnapshotBuilder& SnapshotBuilder::SetCatalog(const CatalogView* catalog) {
  catalog_ = catalog;
  return *this;
}

SnapshotBuilder& SnapshotBuilder::SetLemmaIndex(const LemmaIndex* index) {
  index_ = index;
  return *this;
}

SnapshotBuilder& SnapshotBuilder::SetCorpus(const CorpusIndex* corpus) {
  corpus_ = corpus;
  return *this;
}

Status SnapshotBuilder::WriteTo(std::vector<uint8_t>* out) const {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition("snapshot requires a catalog payload");
  }

  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections;
  sections.emplace_back(kCatalogSection, BuildCatalogSection(*catalog_));
  if (index_ != nullptr) {
    sections.emplace_back(kLemmaIndexSection,
                          BuildLemmaIndexSection(*index_));
  }
  if (corpus_ != nullptr) {
    sections.emplace_back(kCorpusSection, BuildCorpusSection(*corpus_));
    sections.emplace_back(kMatchSupportSection,
                          BuildMatchSupportSection(*corpus_));
  }

  out->clear();
  out->resize(sizeof(FileHeader), 0);
  std::vector<SectionEntry> entries;
  for (auto& [kind, bytes] : sections) {
    SectionEntry entry;
    entry.kind = kind;
    entry.offset = out->size();
    entry.size = bytes.size();
    entries.push_back(entry);
    out->insert(out->end(), bytes.begin(), bytes.end());
    out->resize((out->size() + 7) & ~size_t{7}, 0);  // 8-align next.
  }
  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  // A file without a corpus has no match-support section either, which
  // is exactly the minor-0 layout.
  header.version_minor = corpus_ != nullptr ? kFormatVersionMinor : 0;
  header.section_count = static_cast<uint32_t>(entries.size());
  header.section_table_offset = out->size();
  const uint8_t* entry_bytes =
      reinterpret_cast<const uint8_t*>(entries.data());
  out->insert(out->end(), entry_bytes,
              entry_bytes + entries.size() * sizeof(SectionEntry));
  header.file_size = out->size();
  header.payload_checksum = Checksum64(out->data() + sizeof(FileHeader),
                                    out->size() - sizeof(FileHeader));
  std::memcpy(out->data(), &header, sizeof(header));
  return Status::Ok();
}

Status SnapshotBuilder::WriteToFile(const std::string& path) const {
  std::vector<uint8_t> bytes;
  WEBTAB_RETURN_IF_ERROR(WriteTo(&bytes));
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + tmp);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size() && std::fclose(f) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace webtab
