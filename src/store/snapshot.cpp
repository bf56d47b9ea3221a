#include "store/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/thread_pool.hpp"

namespace specmatch::store {

namespace {

std::string errno_text() { return std::strerror(errno); }

[[noreturn]] void fail_path(const std::string& path, const std::string& what) {
  throw SnapshotError("snapshot " + path + ": " + what);
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // odd: a bijection
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0x53504D534E415032ull ^ bytes;  // "SPMSNAP2", BE
  std::size_t k = 0;
  for (; k + 8 <= bytes; k += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + k, sizeof(word));
    hash = std::rotl((hash ^ word) * kMul, 31);
  }
  for (; k < bytes; ++k) hash = std::rotl((hash ^ p[k]) * kMul, 31);
  // Final avalanche (MurmurHash3's fmix64).
  hash ^= hash >> 33;
  hash *= 0xFF51AFD7ED558CCDull;
  hash ^= hash >> 33;
  hash *= 0xC4CEB9FE1A85EC53ull;
  hash ^= hash >> 33;
  return hash;
}

std::uint64_t block_checksum64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  std::vector<std::uint64_t> sums((bytes + kChecksumBlockBytes - 1) /
                                  kChecksumBlockBytes);
  // Each block writes only its own slot, so the list — and the result — is
  // the same at any lane count.
  parallel_for(0, sums.size(), [&](std::size_t b) {
    const std::size_t begin = b * kChecksumBlockBytes;
    sums[b] = checksum64(p + begin,
                         std::min(kChecksumBlockBytes, bytes - begin));
  });
  return checksum64(sums.data(), sums.size() * sizeof(std::uint64_t));
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t k = 0; k < bytes; ++k) {
    hash ^= p[k];
    hash *= 1099511628211ull;
  }
  return hash;
}

void SnapshotBuilder::add_section(SectionKind kind, const void* data,
                                  std::size_t bytes, std::size_t count) {
  begin_section(kind);
  add_piece(data, bytes);
  sections_.back().count = count;
  sections_.back().count_is_bytes = false;
}

void SnapshotBuilder::begin_section(SectionKind kind) {
  sections_.push_back(Pending{kind, 0, true, 0, pieces_.size()});
}

std::uint64_t SnapshotBuilder::add_piece(const void* data, std::size_t bytes,
                                         std::size_t align) {
  Pending& section = sections_.back();
  const std::uint64_t at = (section.bytes + align - 1) / align * align;
  pieces_.push_back(Piece{static_cast<const std::byte*>(data), bytes, at});
  section.bytes = at + bytes;
  return at;
}

SnapshotImage SnapshotBuilder::finish(SnapshotHeader header) const {
  const auto align_up = [](std::size_t n) {
    return (n + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  };
  const std::size_t table_end =
      sizeof(SnapshotHeader) + sections_.size() * sizeof(SectionEntry);
  std::vector<SectionEntry> table(sections_.size());
  std::size_t cursor = align_up(table_end);
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Pending& section = sections_[s];
    table[s].kind = static_cast<std::uint32_t>(section.kind);
    table[s].offset = cursor;
    table[s].bytes = section.bytes;
    table[s].count = section.count_is_bytes ? section.bytes : section.count;
    cursor = align_up(cursor + section.bytes);
  }

  // Sized once and left uninitialized: every byte below is written exactly
  // once, by a payload copy or by zeroing the padding in front of it.
  SnapshotImage image(cursor);
  std::byte* const out = image.data();
  std::memcpy(out + sizeof(SnapshotHeader), table.data(),
              table.size() * sizeof(SectionEntry));
  std::size_t written = table_end;
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const std::size_t piece_end = s + 1 < sections_.size()
                                      ? sections_[s + 1].first_piece
                                      : pieces_.size();
    for (std::size_t k = sections_[s].first_piece; k < piece_end; ++k) {
      const Piece& piece = pieces_[k];
      const std::size_t at = table[s].offset + piece.at;
      std::memset(out + written, 0, at - written);
      if (piece.bytes > 0) std::memcpy(out + at, piece.data, piece.bytes);
      written = at + piece.bytes;
    }
  }
  std::memset(out + written, 0, image.size() - written);

  header.file_bytes = image.size();
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.checksum = block_checksum64(out + sizeof(SnapshotHeader),
                                     image.size() - sizeof(SnapshotHeader));
  std::memcpy(out, &header, sizeof(header));
  return image;
}

std::uint64_t write_snapshot_file(const std::string& path,
                                  std::span<const std::byte> image,
                                  bool sync) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_path(tmp, "cannot create: " + errno_text());
  std::size_t written = 0;
  while (written < image.size()) {
    const ssize_t n = ::write(fd, image.data() + written,
                              image.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail = errno_text();
      ::close(fd);
      ::unlink(tmp.c_str());
      fail_path(tmp, "write failed: " + detail);
    }
    written += static_cast<std::size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    const std::string detail = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    fail_path(tmp, "fsync failed: " + detail);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail_path(tmp, "close failed: " + errno_text());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string detail = errno_text();
    ::unlink(tmp.c_str());
    fail_path(path, "rename failed: " + detail);
  }
  return image.size();
}

MappedSnapshot::MappedSnapshot(std::string path) : path_(std::move(path)) {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open: " + errno_text());
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = errno_text();
    ::close(fd);
    fail("cannot stat: " + detail);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < sizeof(SnapshotHeader)) {
    ::close(fd);
    fail("truncated: " + std::to_string(size_) + " bytes, the header alone is " +
         std::to_string(sizeof(SnapshotHeader)));
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) fail("mmap failed: " + errno_text());
  data_ = static_cast<const std::byte*>(map);
  try {
    verify();
  } catch (...) {
    // A throwing constructor never runs the destructor: drop the mapping
    // here or it leaks on every rejected file.
    ::munmap(map, size_);
    data_ = nullptr;
    throw;
  }
}

void MappedSnapshot::verify() const {
  const SnapshotHeader& h = header();
  if (h.magic != kSnapshotMagic) {
    std::ostringstream what;
    what << "not a specmatch snapshot (magic 0x" << std::hex << h.magic
         << ", expected 0x" << kSnapshotMagic << ")";
    fail(what.str());
  }
  if (h.version != kSnapshotVersion)
    fail("unsupported snapshot version " + std::to_string(h.version) +
         " (this build reads version " + std::to_string(kSnapshotVersion) +
         "); rebuild the market from its create request");
  if (h.endian != kEndianStamp) {
    std::ostringstream what;
    what << "written on a different-endianness machine (stamp 0x" << std::hex
         << h.endian << ", expected 0x" << kEndianStamp
         << "); snapshots do not migrate across byte orders";
    fail(what.str());
  }
  if (h.kind != static_cast<std::uint32_t>(FileKind::kState) &&
      h.kind != static_cast<std::uint32_t>(FileKind::kGraph))
    fail("unknown file kind " + std::to_string(h.kind) +
         " (a snapshot is a state file or a graph file)");
  if (h.file_bytes != size_)
    fail("truncated or overlong: header declares " +
         std::to_string(h.file_bytes) + " bytes, the file has " +
         std::to_string(size_));
  const std::size_t table_end =
      sizeof(SnapshotHeader) + h.section_count * sizeof(SectionEntry);
  if (table_end > size_)
    fail("section table (" + std::to_string(h.section_count) +
         " entries) runs past the end of the file");
  const std::uint64_t computed = block_checksum64(
      data_ + sizeof(SnapshotHeader), size_ - sizeof(SnapshotHeader));
  if (computed != h.checksum) {
    std::ostringstream what;
    what << "checksum mismatch (stored 0x" << std::hex << h.checksum
         << ", computed 0x" << computed << "): the file is corrupt";
    fail(what.str());
  }
  for (const SectionEntry& entry : sections()) {
    if (entry.offset % kSectionAlign != 0)
      fail("section kind " + std::to_string(entry.kind) +
           " is misaligned (offset " + std::to_string(entry.offset) + ")");
    if (entry.offset > size_ || entry.bytes > size_ - entry.offset)
      fail("section kind " + std::to_string(entry.kind) +
           " runs past the end of the file");
  }
}

MappedSnapshot::~MappedSnapshot() {
  if (data_ != nullptr)
    ::munmap(const_cast<std::byte*>(data_), size_);
}

const SnapshotHeader& MappedSnapshot::header() const {
  return *reinterpret_cast<const SnapshotHeader*>(data_);
}

std::span<const SectionEntry> MappedSnapshot::sections() const {
  return {reinterpret_cast<const SectionEntry*>(data_ + sizeof(SnapshotHeader)),
          header().section_count};
}

const SectionEntry* MappedSnapshot::find(SectionKind kind) const {
  for (const SectionEntry& entry : sections())
    if (entry.kind == static_cast<std::uint32_t>(kind)) return &entry;
  return nullptr;
}

const SectionEntry& MappedSnapshot::require(SectionKind kind) const {
  const SectionEntry* entry = find(kind);
  if (entry == nullptr)
    fail("missing section kind " +
         std::to_string(static_cast<std::uint32_t>(kind)));
  return *entry;
}

const std::byte* MappedSnapshot::section_bytes(const SectionEntry& entry,
                                               std::uint64_t offset,
                                               std::uint64_t bytes) const {
  if (offset > entry.bytes || bytes > entry.bytes - offset)
    fail("sub-array [" + std::to_string(offset) + ", +" +
         std::to_string(bytes) + ") runs past section kind " +
         std::to_string(entry.kind));
  return data_ + entry.offset + offset;
}

void MappedSnapshot::release_pages() const {
  (void)::madvise(const_cast<std::byte*>(data_), size_, MADV_DONTNEED);
}

void MappedSnapshot::check_array(const SectionEntry& entry,
                                 std::size_t elem) const {
  if (entry.bytes != entry.count * elem)
    fail("section kind " + std::to_string(entry.kind) + " declares " +
         std::to_string(entry.count) + " elements of " + std::to_string(elem) +
         " bytes but holds " + std::to_string(entry.bytes) + " bytes");
}

void MappedSnapshot::fail(const std::string& what) const {
  throw SnapshotError("snapshot " + path_ + ": " + what);
}

}  // namespace specmatch::store
