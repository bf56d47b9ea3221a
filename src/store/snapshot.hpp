// Versioned binary market snapshots: the on-disk format, a one-copy image
// writer, and an mmap-backed reader.
//
// A market's snapshot is a pair of files of one format, told apart by the
// header's file kind. The GRAPH file holds everything a market never changes
// after create — scenario, buyer and seller parents, reserves, and every
// channel's adjacency (flat CSR arrays or dense bitset rows) — and is
// written once. The STATE file holds what serving changes — live and base
// prices, activity/dirty masks, the carried matching, counters and flags —
// and is rewritten on every spill. Both headers carry the graph identity
// digest, so a state file names the graph file it belongs to.
//
// Each file is a 64-byte header (magic, version, endianness stamp, byte
// count, checksum, file kind, graph digest), a section table, then flat
// payload sections each padded to a 64-byte boundary. The payloads are the
// exact arrays the resident MarketEntry works over, so writing is one copy
// per byte and loading is page-in plus flat copies, never a representation
// change: the reader hands mapped adjacency pages straight to
// graph::InterferenceGraph::from_csr_view (CSR arrays) and from_dense_view
// (dense row blocks).
//
// Integrity is fail-loud: every load verifies magic, version, endianness
// stamp, declared length against the real file size, and a word-wide
// checksum (checksum64) over everything past the header before any byte is
// interpreted. A snapshot that fails any check throws SnapshotError with an
// actionable message — a corrupt file can never become a silently wrong
// market. There is no cross-version or cross-endianness migration: a
// mismatch is an error, and the market is rebuilt from its create request
// instead (see docs/PERSISTENCE.md for the compatibility rules).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace specmatch::store {

/// Thrown on any snapshot I/O or validation failure. The message names the
/// file and the specific check that failed.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E534D5053ull;  // "SPMSNAP1" LE
inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::uint32_t kEndianStamp = 0x01020304;
inline constexpr std::size_t kSectionAlign = 64;

/// What a snapshot file holds. Values are part of the on-disk format.
enum class FileKind : std::uint32_t {
  kState = 1,  ///< rewritten every spill: prices, masks, matching, counters
  kGraph = 2,  ///< written once: scenario, parents, reserves, adjacency
};

/// Section payload identifiers. Values are part of the on-disk format:
/// append new kinds, never renumber. Kinds 1, 2 and 6-9 live in the state
/// file; the rest in the graph file.
enum class SectionKind : std::uint32_t {
  kPrices = 1,        ///< live (masked) price matrix, double, M*N channel-major
  kBasePrices = 2,    ///< un-masked price matrix, double, M*N
  kReserves = 3,      ///< per-channel reserve prices, double, M
  kBuyerParents = 4,  ///< parent of each virtual buyer, int32, N
  kSellerParents = 5, ///< parent of each virtual channel, int32, M
  kActive = 6,        ///< per-buyer activity mask, uint8, N
  kDirty = 7,         ///< per-buyer dirty mask, uint8, N
  kMatching = 8,      ///< seller_of per buyer (-1 unmatched), int32, N
  kCounters = 9,      ///< per-market serving stats, int64, kNumCounters
  kScenarioSellerCounts = 10,  ///< m_i per parent seller, int32
  kScenarioBuyerDemands = 11,  ///< n_j per parent buyer, int32
  kScenarioLocations = 12,     ///< parent buyer (x, y) pairs, double, 2*B
  kScenarioRanges = 13,        ///< per-channel transmission range, double, M
  kScenarioUtilities = 14,     ///< scenario utilities, double, M*N
  kScenarioReserves = 15,      ///< scenario reserves, double, M or 0
  kGraphMeta = 16,     ///< one GraphMetaRecord per channel, M
  kGraphOffsets = 17,  ///< concatenated per-channel CSR offsets, uint32
  kGraphDegrees = 18,  ///< concatenated per-channel degree caches, uint32
  kGraphIds = 19,      ///< concatenated per-channel neighbour ids, u16/u32
  kGraphRows = 20,     ///< concatenated dense-channel row blocks, uint64
};

inline constexpr std::size_t kNumCounters = 6;

/// Header flag bits (state files).
inline constexpr std::uint32_t kFlagHasMatching = 1u << 0;
inline constexpr std::uint32_t kFlagDirtyValid = 1u << 1;

struct SnapshotHeader {
  std::uint64_t magic = kSnapshotMagic;
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t endian = kEndianStamp;
  std::uint64_t file_bytes = 0;  ///< whole file, header included
  std::uint64_t checksum = 0;    ///< checksum64 over bytes [64, file_bytes)
  std::uint32_t section_count = 0;
  std::uint32_t num_channels = 0;  ///< M
  std::uint32_t num_buyers = 0;    ///< N
  std::uint32_t flags = 0;
  std::uint32_t kind = 0;          ///< FileKind
  std::uint32_t reserved = 0;
  /// The graph identity: in a graph file, the digest of what it holds; in a
  /// state file, the digest of the graph file it belongs to.
  std::uint64_t graph_digest = 0;
};
static_assert(sizeof(SnapshotHeader) == 64);

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t pad = 0;
  std::uint64_t offset = 0;  ///< from file start; kSectionAlign-aligned
  std::uint64_t bytes = 0;   ///< payload bytes (padding excluded)
  std::uint64_t count = 0;   ///< element count
};
static_assert(sizeof(SectionEntry) == 32);

/// Per-channel record inside kGraphMeta. The *_off fields are byte offsets
/// RELATIVE to the start of their blob section (kGraphDegrees, kGraphOffsets,
/// kGraphIds, kGraphRows), each kSectionAlign-aligned, so the layout of the
/// blobs is independent of where they land in the file. Every channel has a
/// degree cache; a CSR channel adds offsets and ids, a dense channel its
/// rows, exactly the N·⌈N/64⌉ words the resident graph holds.
struct GraphMetaRecord {
  std::uint32_t rep = 0;     ///< resident representation: 0 dense, 1 CSR
  std::uint32_t narrow = 0;  ///< CSR: 1 => 16-bit neighbour ids
  std::uint64_t num_edges = 0;
  std::uint64_t max_degree = 0;
  std::uint64_t degrees_off = 0;  ///< num_vertices uint32 cached degrees
  std::uint64_t offsets_off = 0;  ///< CSR: num_vertices + 1 uint32 row starts
  std::uint64_t ids_off = 0;      ///< CSR: 2 * num_edges neighbour ids
  std::uint64_t rows_off = 0;     ///< dense: num_vertices bitset rows
};
static_assert(sizeof(GraphMetaRecord) == 56);

/// The snapshot checksum: a 64-bit hash that consumes 8 bytes per step
/// (xor, multiply by an odd constant, rotate — each step a bijection of the
/// running state, so any single changed word or tail byte changes the
/// result), a byte-wise tail, and a final avalanche.
std::uint64_t checksum64(const void* data, std::size_t bytes);

/// FNV-1a 64-bit over `bytes`, one byte per step. No longer the snapshot
/// checksum; kept with its exact output as a general-purpose stable digest.
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

/// std::allocator whose value-less construct() default-initializes, so a
/// freshly sized image buffer is not zero-filled before finish() writes
/// every byte of it.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A complete snapshot file image.
using SnapshotImage = std::vector<std::byte, UninitializedAllocator<std::byte>>;

/// Assembles a snapshot image with one copy. Sections and their pieces are
/// recorded as borrowed spans; finish() sizes the image once, copies each
/// payload byte into it exactly once, zeroes only the padding, and stamps
/// the header, section table and checksum. Every borrowed span must stay
/// valid until finish() returns.
class SnapshotBuilder {
 public:
  /// A section whose payload is `bytes` at `data`, holding `count` elements.
  void add_section(SectionKind kind, const void* data, std::size_t bytes,
                   std::size_t count);

  template <typename T>
  void add_array(SectionKind kind, std::span<const T> values) {
    add_section(kind, values.data(), values.size_bytes(), values.size());
  }

  /// Opens a blob section that add_piece() appends to; its element count is
  /// its byte length.
  void begin_section(SectionKind kind);

  /// Appends `bytes` at `data` to the open section, at its next multiple of
  /// `align`; returns the piece's byte offset within the section.
  std::uint64_t add_piece(const void* data, std::size_t bytes,
                          std::size_t align = kSectionAlign);

  /// Stamps `header` (its kind, dimensions, flags and graph digest are the
  /// caller's; length, section count and checksum are filled in here).
  SnapshotImage finish(SnapshotHeader header) const;

 private:
  struct Piece {
    const std::byte* data;
    std::size_t bytes;
    std::uint64_t at;  ///< offset within the section
  };
  struct Pending {
    SectionKind kind;
    std::size_t count;
    bool count_is_bytes;
    std::size_t bytes;  ///< payload bytes so far (pieces plus inner padding)
    std::size_t first_piece;
  };
  std::vector<Pending> sections_;
  std::vector<Piece> pieces_;
};

/// Writes `image` to `path` atomically: the bytes go to `path + ".tmp"`,
/// optionally fsync'd, then renamed over `path`. Throws SnapshotError on any
/// I/O failure. Returns the image size.
std::uint64_t write_snapshot_file(const std::string& path,
                                  std::span<const std::byte> image,
                                  bool sync);

/// A read-only mmap of one snapshot file, fully verified at construction
/// (magic, version, endianness, file kind, length, checksum, section table
/// bounds and alignment). The mapping lives as long as the object; a
/// MarketEntry holding view-backed graphs keeps a shared_ptr to it.
class MappedSnapshot {
 public:
  explicit MappedSnapshot(std::string path);
  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const std::string& path() const { return path_; }
  std::size_t size() const { return size_; }
  const SnapshotHeader& header() const;
  std::span<const SectionEntry> sections() const;

  /// Section of `kind`, or nullptr when the snapshot has none.
  const SectionEntry* find(SectionKind kind) const;
  /// Section of `kind`, or SnapshotError naming the missing section.
  const SectionEntry& require(SectionKind kind) const;

  /// The section's payload as a typed array; SnapshotError when the byte
  /// length is not count * sizeof(T).
  template <typename T>
  std::span<const T> array(const SectionEntry& entry) const {
    check_array(entry, sizeof(T));
    return {reinterpret_cast<const T*>(data_ + entry.offset),
            static_cast<std::size_t>(entry.count)};
  }

  /// Bounds-checked raw pointer `bytes` long at `offset` inside the
  /// section's payload (the CSR blobs address sub-arrays this way).
  const std::byte* section_bytes(const SectionEntry& entry,
                                 std::uint64_t offset,
                                 std::uint64_t bytes) const;

 private:
  void verify() const;
  void check_array(const SectionEntry& entry, std::size_t elem) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace specmatch::store
