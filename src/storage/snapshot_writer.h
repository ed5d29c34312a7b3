#ifndef WEBTAB_STORAGE_SNAPSHOT_WRITER_H_
#define WEBTAB_STORAGE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog_view.h"
#include "common/status.h"
#include "index/lemma_index.h"
#include "search/corpus_index.h"

namespace webtab {
namespace storage {

/// Serializes catalog / lemma-index / corpus payloads into the snapshot
/// binary format (see format.h and src/storage/README.md). The builder
/// lays out flat offset-based arrays (string arenas, dense id tables,
/// CSR postings) so the file can be opened with mmap and read in place.
///
/// Typical use:
///   SnapshotBuilder builder;
///   builder.SetCatalog(&catalog).SetLemmaIndex(&index).SetCorpus(&corpus);
///   WEBTAB_CHECK_OK(builder.WriteToFile("world.snap"));
class SnapshotBuilder {
 public:
  /// The catalog payload (required). Any CatalogView works, including a
  /// snapshot view (re-snapshotting round-trips losslessly).
  SnapshotBuilder& SetCatalog(const CatalogView* catalog);

  /// Optional lemma-index payload. Requires the in-memory build (the
  /// writer serializes its postings lists and vocabulary verbatim).
  SnapshotBuilder& SetLemmaIndex(const LemmaIndex* index);

  /// Optional corpus payload (annotated tables + postings).
  SnapshotBuilder& SetCorpus(const CorpusIndex* corpus);

  /// Serializes to an in-memory buffer (header + payload + section
  /// table, checksummed) — the exact bytes WriteToFile would emit.
  Status WriteTo(std::vector<uint8_t>* out) const;

  /// Serializes to `path` (atomically overwrites on success).
  Status WriteToFile(const std::string& path) const;

 private:
  const CatalogView* catalog_ = nullptr;
  const LemmaIndex* index_ = nullptr;
  const CorpusIndex* corpus_ = nullptr;
};

}  // namespace storage
}  // namespace webtab

#endif  // WEBTAB_STORAGE_SNAPSHOT_WRITER_H_
