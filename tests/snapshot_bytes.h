#ifndef WEBTAB_TESTS_SNAPSHOT_BYTES_H_
#define WEBTAB_TESTS_SNAPSHOT_BYTES_H_

// Byte-level access to snapshot images, for tests that author files the
// writer never emits: hostile mutations and older layouts.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

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

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_SNAPSHOT_BYTES_H_
