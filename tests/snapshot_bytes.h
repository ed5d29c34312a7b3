#ifndef WEBTAB_TESTS_SNAPSHOT_BYTES_H_
#define WEBTAB_TESTS_SNAPSHOT_BYTES_H_

// Byte-level access to snapshot images, for tests that author files the
// writer never emits: hostile mutations and older layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "search/corpus_view.h"
#include "storage/format.h"

namespace webtab {
namespace testing_util {

inline void WriteBytes(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

template <typename T>
T ReadPod(const std::vector<uint8_t>& bytes, uint64_t offset) {
  T out;
  std::memcpy(&out, bytes.data() + offset, sizeof(T));
  return out;
}

inline std::vector<storage::SectionEntry> ReadSectionTable(
    const std::vector<uint8_t>& bytes) {
  const auto header = ReadPod<storage::FileHeader>(bytes, 0);
  std::vector<storage::SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), bytes.data() + header.section_table_offset,
              entries.size() * sizeof(storage::SectionEntry));
  return entries;
}

/// Offset of the first section of `kind`, or 0 when there is none.
inline uint64_t SectionOffsetOf(const std::vector<uint8_t>& bytes,
                                uint32_t kind) {
  for (const storage::SectionEntry& entry : ReadSectionTable(bytes)) {
    if (entry.kind == kind) return entry.offset;
  }
  return 0;
}

/// Row `row` of a CSR stored in the section at `section`, as [begin,
/// end) element indices into its values.
inline std::pair<uint64_t, uint64_t> CsrRowRange(
    const std::vector<uint8_t>& bytes, uint64_t section,
    const storage::CsrRef& csr, uint64_t row) {
  const uint64_t ends = section + csr.row_ends.offset;
  const uint64_t begin =
      row == 0 ? 0 : ReadPod<uint64_t>(bytes, ends + (row - 1) * 8);
  return {begin, ReadPod<uint64_t>(bytes, ends + row * 8)};
}

/// Recomputes the payload checksum after a surgical mutation, so the
/// file models an attacker-authored snapshot rather than bit rot.
inline void FixChecksum(std::vector<uint8_t>* bytes) {
  const uint64_t payload = sizeof(storage::FileHeader);
  uint64_t checksum = storage::Checksum64(bytes->data() + payload,
                                          bytes->size() - payload);
  std::memcpy(bytes->data() + offsetof(storage::FileHeader,
                                       payload_checksum),
              &checksum, sizeof(checksum));
}

/// Reverses the order of `token`'s cell-token postings at `table` in
/// a snapshot image and fixes the checksum. The writer lists a table's
/// columns in ascending order; DeepValidate checks only table order, so
/// the result still opens validated. Returns how many postings the run
/// holds (0 when the token has none at `table`).
inline size_t ReverseCellTokenRun(std::vector<uint8_t>* bytes,
                                  std::string_view token, int32_t table) {
  const uint64_t section =
      SectionOffsetOf(*bytes, storage::kMatchSupportSection);
  const auto h = ReadPod<storage::MatchSupportHeader>(*bytes, section);
  const uint64_t ends = section + h.cell_tokens.ends.offset;
  const uint64_t chars = section + h.cell_tokens.bytes.offset;
  uint64_t row = 0, begin = 0;
  for (; row < h.cell_tokens.ends.count; ++row) {
    const uint64_t end = ReadPod<uint64_t>(*bytes, ends + row * 8);
    if (std::string_view(
            reinterpret_cast<const char*>(bytes->data() + chars + begin),
            end - begin) == token) {
      break;
    }
    begin = end;
  }
  if (row == h.cell_tokens.ends.count) return 0;
  const auto [first, last] =
      CsrRowRange(*bytes, section, h.cell_token_postings, row);
  const uint64_t values = section + h.cell_token_postings.values.offset;
  std::vector<CellTokenRef> run;
  uint64_t run_begin = 0;
  for (uint64_t i = first; i < last; ++i) {
    auto ref =
        ReadPod<CellTokenRef>(*bytes, values + i * sizeof(CellTokenRef));
    if (ref.table != table) continue;
    if (run.empty()) run_begin = i;
    run.push_back(ref);
  }
  std::reverse(run.begin(), run.end());
  std::memcpy(bytes->data() + values + run_begin * sizeof(CellTokenRef),
              run.data(), run.size() * sizeof(CellTokenRef));
  FixChecksum(bytes);
  return run.size();
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_SNAPSHOT_BYTES_H_
