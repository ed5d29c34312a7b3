#ifndef WEBTAB_STORAGE_FORMAT_H_
#define WEBTAB_STORAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "catalog/catalog_view.h"
#include "index/lemma_index.h"
#include "search/corpus_view.h"

namespace webtab {
namespace storage {

/// On-disk layout of a webtab snapshot (see src/storage/README.md).
///
/// A snapshot is a single file:
///
///   [FileHeader | payload ... | SectionEntry[section_count]]
///
/// Every structure below is a fixed-layout POD written verbatim
/// (little-endian, natural alignment, no pointers). All offsets are
/// 8-byte aligned so every array can be read in place after mmap —
/// opening a snapshot never parses records or materializes heap objects.
/// The payload checksum (Checksum64 hash, format.h) covers every byte after the file
/// header, including the section table.

inline constexpr char kMagic[8] = {'W', 'T', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr uint32_t kFormatVersion = 1;
/// Backward-compatible revision within kFormatVersion. Minor 1 adds the
/// match-support section; readers accept any minor (new sections are
/// skipped by old readers, and new readers fall back when the section
/// is absent).
inline constexpr uint64_t kFormatVersionMinor = 1;

enum SectionKind : uint32_t {
  kCatalogSection = 1,
  kLemmaIndexSection = 2,
  kCorpusSection = 3,
  kMatchSupportSection = 4,
};

struct FileHeader {
  char magic[8];
  uint32_t version = kFormatVersion;
  uint32_t section_count = 0;
  uint64_t file_size = 0;
  /// Checksum64 (format.h) over bytes [sizeof(FileHeader), file_size).
  uint64_t payload_checksum = 0;
  /// Absolute offset of the SectionEntry array.
  uint64_t section_table_offset = 0;
  /// Was reserved[0] (always written 0) before minor versioning, so
  /// minor-0 files decode as minor 0 without a layout change.
  uint64_t version_minor = 0;
  uint64_t reserved[2] = {0, 0};
};
static_assert(sizeof(FileHeader) == 64);

struct SectionEntry {
  uint32_t kind = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // Absolute, 8-byte aligned.
  uint64_t size = 0;    // Bytes.
};
static_assert(sizeof(SectionEntry) == 24);

/// A typed array inside a section: `count` elements of the array type at
/// `offset` bytes from the section start. Empty arrays have count == 0.
struct BlobRef {
  uint64_t offset = 0;
  uint64_t count = 0;
};

/// A string arena: `ends` holds the exclusive end byte offset of each
/// string inside `bytes`; string i spans [ends[i-1] (or 0), ends[i]).
struct StringArenaRef {
  BlobRef ends;   // uint64_t[num_strings], non-decreasing.
  BlobRef bytes;  // char[total_bytes].
};

/// A CSR ragged array: row i's values are values[row_ends[i-1] (or 0),
/// row_ends[i]). The value type is context-dependent.
struct CsrRef {
  BlobRef row_ends;  // uint64_t[num_rows], non-decreasing.
  BlobRef values;
};

// --- Catalog section ------------------------------------------------------

struct RelationMetaDisk {
  int32_t subject_type = kNa;
  int32_t object_type = kNa;
  int32_t cardinality = 0;
  int32_t distinct_subjects = 0;  // |{e1}| in the relation's extension.
  int32_t distinct_objects = 0;
  int32_t pad = 0;
};
static_assert(sizeof(RelationMetaDisk) == 24);

// RelationTuples() exposes the on-disk tuple array directly as
// std::pair<EntityId, EntityId>; pin down the layout assumptions.
static_assert(std::is_standard_layout_v<EntityPair>);
static_assert(sizeof(EntityPair) == 8);

struct CatalogHeader {
  int32_t num_types = 0;
  int32_t num_entities = 0;
  int32_t num_relations = 0;
  int32_t root_type = kNa;
  int64_t num_tuples = 0;

  StringArenaRef type_names;
  StringArenaRef type_lemmas;  // All type lemmas, grouped by type.
  BlobRef type_lemma_ends;     // uint64_t[num_types] into type_lemmas.
  CsrRef type_parents;         // TypeId values, one row per type.
  CsrRef type_children;        // TypeId values.
  CsrRef type_direct_entities;  // EntityId values.

  StringArenaRef entity_names;
  StringArenaRef entity_lemmas;  // All entity lemmas, grouped by entity.
  BlobRef entity_lemma_ends;     // uint64_t[num_entities].
  CsrRef entity_direct_types;    // TypeId values.

  StringArenaRef relation_names;
  BlobRef relation_meta;  // RelationMetaDisk[num_relations].
  CsrRef tuples;          // EntityPair values, one row per relation,
                          // sorted by (subject, object), unique.

  // Forward index: for each relation a sorted run of distinct subjects in
  // fwd_keys; the objects of global key k are fwd_values[fwd_value_ends
  // [k-1] (or 0), fwd_value_ends[k]). Objects sorted ascending.
  BlobRef fwd_key_ends;    // uint64_t[num_relations] into fwd_keys.
  BlobRef fwd_keys;        // EntityId[].
  BlobRef fwd_value_ends;  // uint64_t[len(fwd_keys)] into fwd_values.
  BlobRef fwd_values;      // EntityId[].
  // Reverse index: distinct objects -> sorted subjects.
  BlobRef rev_key_ends;
  BlobRef rev_keys;
  BlobRef rev_value_ends;
  BlobRef rev_values;

  // Global pair index: pair_keys[i] = (uint64(e1) << 32) | uint32(e2),
  // sorted ascending; the relations containing the pair (ascending id)
  // are pair_rels[pair_rel_ends[i-1] (or 0), pair_rel_ends[i]).
  BlobRef pair_keys;      // uint64_t[].
  BlobRef pair_rel_ends;  // uint64_t[len(pair_keys)].
  BlobRef pair_rels;      // RelationId[].

  // Name lookup: ids sorted by their name (byte order), binary searched.
  BlobRef types_by_name;      // TypeId[num_types].
  BlobRef entities_by_name;   // EntityId[num_entities].
  BlobRef relations_by_name;  // RelationId[num_relations].
};

// --- Lemma index section --------------------------------------------------

static_assert(std::is_trivially_copyable_v<LemmaPosting>);

struct LemmaIndexHeader {
  int64_t num_postings = 0;
  int64_t num_documents = 0;  // Vocabulary document count (IDF source).
  int64_t num_tokens = 0;

  StringArenaRef token_texts;  // By TokenId.
  BlobRef token_doc_freq;      // int64_t[num_tokens].
  BlobRef tokens_by_text;      // TokenId[num_tokens], sorted by text.
  CsrRef entity_postings;      // LemmaPosting values, one row per token.
  CsrRef type_postings;        // LemmaPosting values.
};

// --- Corpus section -------------------------------------------------------

static_assert(std::is_trivially_copyable_v<ColumnRef>);
static_assert(std::is_trivially_copyable_v<RelationRef>);
static_assert(std::is_trivially_copyable_v<CellRef>);

struct TableMetaDisk {
  int64_t id = -1;
  int32_t rows = 0;
  int32_t cols = 0;
  uint64_t cell_start = 0;  // Index into the cells arena (row-major).
  uint64_t col_start = 0;   // Index into headers arena / column_types.
  int32_t has_headers = 0;
  int32_t pad = 0;
};
static_assert(sizeof(TableMetaDisk) == 40);

/// One annotated relation on a table's ordered column pair (c1 < c2).
struct TableRelationDisk {
  int32_t c1 = 0;
  int32_t c2 = 0;
  int32_t relation = kNa;
  int32_t swapped = 0;
};
static_assert(sizeof(TableRelationDisk) == 16);

struct CorpusHeader {
  int64_t num_tables = 0;

  BlobRef table_meta;       // TableMetaDisk[num_tables].
  StringArenaRef cells;     // All cells, tables consecutive, row-major.
  StringArenaRef headers;   // cols strings per table (empty if none).
  StringArenaRef contexts;  // One per table.
  BlobRef column_types;     // TypeId[total_cols], at meta.col_start + c.
  BlobRef cell_entities;    // EntityId[total_cells], at cell_start+r*cols+c.
  CsrRef table_relations;   // TableRelationDisk values, one row per table,
                            // sorted by (c1, c2).

  StringArenaRef header_tokens;   // Distinct tokens, sorted by text.
  CsrRef header_postings;         // ColumnRef values, one row per token.
  StringArenaRef context_tokens;  // Sorted by text.
  CsrRef context_postings;        // int32_t table ids.
  BlobRef type_keys;              // TypeId[], sorted ascending.
  CsrRef type_postings;           // ColumnRef values, one row per key.
  BlobRef relation_keys;          // RelationId[], sorted.
  CsrRef relation_postings;       // RelationRef values.
  BlobRef entity_keys;            // EntityId[], sorted.
  CsrRef entity_postings;         // CellRef values.
};

// --- Match-support section (format minor 1) ------------------------------

/// The cell-token match-support index. Written only alongside a corpus
/// section; readers that predate it skip the unknown kind, and readers
/// fall back to unrefined bounds when it is absent.
///
/// The leading fields are reserved: writers zero them and readers never
/// look at them. Earlier writers stored per-posting-list block summaries
/// there (block size 64, then five CSRs row-aligned with the corpus
/// postings), so those files still parse with this layout. Readers of
/// that era required a block size of 64, so they reject a zero one
/// instead of misreading the file.
struct MatchSupportHeader {
  int64_t reserved_block_size = 0;
  CsrRef reserved_blocks[5];

  StringArenaRef cell_tokens;  // Distinct cell tokens, sorted by text.
  CsrRef cell_token_postings;  // CellTokenRef values, one row per
                               // token, sorted by (table, col), unique;
                               // min_tokens >= 1.
};
static_assert(offsetof(MatchSupportHeader, cell_tokens) == 168,
              "match-support fields keep their minor-1 offsets");
static_assert(sizeof(MatchSupportHeader) == 232);

/// Payload checksum: a word-at-a-time multiply-xor hash (FNV-style
/// constants, murmur-style finalizer). Processes 8 bytes per step so
/// verification runs at memory speed — the open-time budget is "mmap +
/// one streaming pass", and a byte-serial hash would dominate it.
/// Dependency-free and strong enough to catch truncation and bit rot
/// (not cryptographic).
inline uint64_t Checksum64(const uint8_t* data, uint64_t size) {
  auto mix = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return x;
  };
  uint64_t h = 0xcbf29ce484222325ULL ^ (size * 0x100000001b3ULL);
  uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ mix(w)) * 0x9e3779b97f4a7c15ULL;
  }
  uint64_t tail = 0;
  if (i < size) {
    std::memcpy(&tail, data + i, size - i);
    h = (h ^ mix(tail)) * 0x9e3779b97f4a7c15ULL;
  }
  return mix(h);
}

}  // namespace storage
}  // namespace webtab

#endif  // WEBTAB_STORAGE_FORMAT_H_
