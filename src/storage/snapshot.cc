#include "storage/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.h"
#include "storage/format.h"

namespace webtab {
namespace storage {

Snapshot::Mapping::~Mapping() {
  if (data != nullptr && size > 0) {
    ::munmap(const_cast<uint8_t*>(data), size);
  }
}

Result<Snapshot> Snapshot::Open(const std::string& path,
                                const OpenOptions& options) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(FileHeader)) {
    ::close(fd);
    return Status::ParseError("snapshot smaller than its header: " + path);
  }
  void* mapped =
      ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, /*offset=*/0);
  ::close(fd);  // The mapping holds its own reference.
  if (mapped == MAP_FAILED) {
    return Status::IoError("mmap failed for " + path);
  }

  Snapshot snap;
  snap.mapping_ = std::make_unique<Mapping>();
  snap.mapping_->data = static_cast<const uint8_t*>(mapped);
  snap.mapping_->size = file_size;
  const uint8_t* base = snap.mapping_->data;

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("bad snapshot magic in " + path);
  }
  if (header.version != kFormatVersion) {
    return Status::ParseError(
        "unsupported snapshot version " + std::to_string(header.version) +
        " (expected " + std::to_string(kFormatVersion) + ")");
  }
  if (header.file_size != file_size) {
    return Status::ParseError("snapshot truncated or padded: header says " +
                              std::to_string(header.file_size) +
                              " bytes, file has " +
                              std::to_string(file_size));
  }
  if (options.verify_checksum) {
    uint64_t got = Checksum64(base + sizeof(FileHeader),
                           file_size - sizeof(FileHeader));
    if (got != header.payload_checksum) {
      return Status::ParseError("snapshot checksum mismatch in " + path);
    }
  }
  if (header.section_table_offset > file_size ||
      header.section_table_offset % 8 != 0 ||
      header.section_count >
          (file_size - header.section_table_offset) / sizeof(SectionEntry)) {
    return Status::ParseError("corrupt section table in " + path);
  }
  snap.size_ = file_size;
  snap.version_ = header.version;
  snap.version_minor_ = header.version_minor;
  snap.checksum_ = header.payload_checksum;

  const SectionEntry* entries = reinterpret_cast<const SectionEntry*>(
      base + header.section_table_offset);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const SectionEntry& entry = entries[i];
    if (entry.offset % 8 != 0 || entry.offset > file_size ||
        entry.size > file_size - entry.offset) {
      return Status::ParseError("section out of bounds in " + path);
    }
    snap.sections_.push_back(
        SectionInfo{entry.kind, entry.offset, entry.size});
  }

  // Resolve views. The catalog must come first so the lemma index can
  // reference it; the section table preserves write order (catalog,
  // index, corpus) but resolve defensively by kind.
  for (const SectionInfo& info : snap.sections_) {
    if (info.kind != kCatalogSection) continue;
    snap.catalog_ = std::make_unique<SnapshotCatalogView>();
    WEBTAB_RETURN_IF_ERROR(
        snap.catalog_->Init(base + info.offset, info.size));
  }
  for (const SectionInfo& info : snap.sections_) {
    switch (info.kind) {
      case kCatalogSection:
        break;  // Already resolved.
      case kLemmaIndexSection: {
        if (snap.catalog_ == nullptr) {
          return Status::ParseError(
              "lemma index section requires a catalog section");
        }
        snap.lemma_index_ = std::make_unique<SnapshotLemmaIndexView>();
        WEBTAB_RETURN_IF_ERROR(snap.lemma_index_->Init(
            base + info.offset, info.size, snap.catalog_.get()));
        break;
      }
      case kCorpusSection: {
        snap.corpus_ = std::make_unique<SnapshotCorpusView>();
        WEBTAB_RETURN_IF_ERROR(
            snap.corpus_->Init(base + info.offset, info.size));
        break;
      }
      default:
        // Unknown sections are ignored for forward compatibility.
        break;
    }
  }
  // The match-support section augments the corpus view, so attach it
  // only after every corpus section is resolved.
  for (const SectionInfo& info : snap.sections_) {
    if (info.kind != kMatchSupportSection) continue;
    if (snap.corpus_ == nullptr) {
      return Status::ParseError(
          "match-support section requires a corpus section");
    }
    WEBTAB_RETURN_IF_ERROR(
        snap.corpus_->AttachMatchSupport(base + info.offset, info.size));
  }
  if (snap.corpus_ != nullptr && !snap.corpus_->HasMatchSupport()) {
    // Pre-minor-1 snapshot: search still works, but no column can be
    // proved text-matchless, so the select engines run on unrefined
    // bounds. Warn once per process, not per open — hot-swap reloads
    // would otherwise spam the log.
    static bool warned = false;
    if (!warned) {
      warned = true;
      WEBTAB_LOG(Warning)
          << "snapshot " << path
          << " predates the match-support index (format minor "
          << snap.version_minor_
          << "); search falls back to unrefined bounds";
    }
  }
  if (snap.catalog_ == nullptr) {
    return Status::ParseError("snapshot has no catalog section: " + path);
  }
  if (options.deep_validate) {
    WEBTAB_RETURN_IF_ERROR(snap.catalog_->DeepValidate());
    if (snap.lemma_index_ != nullptr) {
      WEBTAB_RETURN_IF_ERROR(snap.lemma_index_->DeepValidate());
    }
    if (snap.corpus_ != nullptr) {
      WEBTAB_RETURN_IF_ERROR(snap.corpus_->DeepValidate());
    }
  }
  return snap;
}

}  // namespace storage
}  // namespace webtab
