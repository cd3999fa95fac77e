#include "serve/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <functional>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "recovery/atomic_file.h"
#include "recovery/crc32.h"
#include "util/parallel.h"

namespace divexp {
namespace serve {
namespace {

/// Rows per fingerprint block. Part of the format: the fingerprint folds
/// one hash per block, in block order, so blocks hash in parallel and the
/// value does not depend on the thread count.
constexpr size_t kFingerprintBlockRows = 4096;

constexpr uint64_t kFingerprintSeed = 0x9e3779b97f4a7c15ull;

/// splitmix64's finalizer: every input bit moves every output bit.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Folds one 64-bit word into a running hash: xxHash64's round, whose
/// only serial dependency is an add, a rotate and a multiply. For a
/// fixed word it is a bijection of the hash, so changing any one word
/// changes the result.
uint64_t Fold(uint64_t hash, uint64_t word) {
  return std::rotl(hash + word * 0xc2b2ae3d27d4eb4full, 31) *
         0x9e3779b185ebca87ull;
}

/// Length, then the bytes eight at a time (the last word zero-padded).
uint64_t FoldBytes(uint64_t hash, std::string_view bytes) {
  hash = Fold(hash, bytes.size());
  for (size_t at = 0; at < bytes.size(); at += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + at,
                std::min<size_t>(8, bytes.size() - at));
    hash = Fold(hash, word);
  }
  return hash;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t FingerprintCatalog(uint64_t hash, const ItemCatalog& catalog) {
  hash = Fold(hash, catalog.num_attributes());
  for (uint32_t a = 0; a < catalog.num_attributes(); ++a) {
    hash = FoldBytes(hash, catalog.attribute_name(a));
    const uint32_t domain = catalog.domain_size(a);
    const uint32_t first = catalog.first_item(a);
    hash = Fold(hash, domain);
    for (uint32_t j = 0; j < domain; ++j) {
      hash = FoldBytes(hash, catalog.item(first + j).value);
    }
  }
  return hash;
}

/// What the fingerprint reads of one row.
struct FingerprintRow {
  ItemSpan items;
  uint64_t t = 0;
  uint64_t f = 0;
  uint64_t bot = 0;
  double support = 0.0;
  double rate = 0.0;
  double divergence = 0.0;
  double t_stat = 0.0;
};

/// Rows [begin, end) of one fingerprint block, row i being row_at(i). A
/// row contributes its length, its items two to a word, its tallies and
/// its stats' bits.
template <typename RowAt>
uint64_t HashBlock(const RowAt& row_at, size_t begin, size_t end) {
  uint64_t hash = kFingerprintSeed;
  for (size_t i = begin; i < end; ++i) {
    const FingerprintRow row = row_at(i);
    const size_t len = row.items.size();
    hash = Fold(hash, len);
    size_t j = 0;
    for (; j + 1 < len; j += 2) {
      hash = Fold(hash, row.items[j] | uint64_t{row.items[j + 1]} << 32);
    }
    if (j < len) hash = Fold(hash, row.items[j]);
    hash = Fold(hash, row.t);
    hash = Fold(hash, row.f);
    hash = Fold(hash, row.bot);
    hash = Fold(hash, DoubleBits(row.support));
    hash = Fold(hash, DoubleBits(row.rate));
    hash = Fold(hash, DoubleBits(row.divergence));
    hash = Fold(hash, DoubleBits(row.t_stat));
  }
  return Mix64(hash);
}

/// The fingerprint from its parts: the catalog, the globals, the row
/// count, then the block hashes in block order.
uint64_t FoldFingerprint(const ItemCatalog& catalog,
                         uint64_t num_dataset_rows, double rate, double mean,
                         double variance, size_t n,
                         std::span<const uint64_t> block_hashes) {
  uint64_t hash = FingerprintCatalog(kFingerprintSeed, catalog);
  hash = Fold(hash, num_dataset_rows);
  hash = Fold(hash, DoubleBits(rate));
  hash = Fold(hash, DoubleBits(mean));
  hash = Fold(hash, DoubleBits(variance));
  hash = Fold(hash, n);
  for (const uint64_t block_hash : block_hashes) hash = Fold(hash, block_hash);
  return Mix64(hash);
}

size_t NumBlocks(size_t n) {
  return (n + kFingerprintBlockRows - 1) / kFingerprintBlockRows;
}

/// The fingerprint of the n-row logical table whose row i is row_at(i).
template <typename RowAt>
uint64_t Fingerprint(const ItemCatalog& catalog, uint64_t num_dataset_rows,
                     double rate, double mean, double variance, size_t n,
                     const RowAt& row_at) {
  std::vector<uint64_t> block_hashes(NumBlocks(n));
  for (size_t b = 0; b < block_hashes.size(); ++b) {
    block_hashes[b] =
        HashBlock(row_at, b * kFingerprintBlockRows,
                  std::min(n, (b + 1) * kFingerprintBlockRows));
  }
  return FoldFingerprint(catalog, num_dataset_rows, rate, mean, variance, n,
                         block_hashes);
}

FingerprintRow TableRow(const PatternTable& table, size_t i) {
  const PatternRow& row = table.row(i);
  return FingerprintRow{ItemSpan(row.items), row.counts.t, row.counts.f,
                        row.counts.bot,      row.support,  row.rate,
                        row.divergence,      row.t};
}

size_t AlignUp(size_t n) {
  return (n + kArtifactAlignment - 1) & ~(kArtifactAlignment - 1);
}

/// Rows serialized per piece of a row-wise section: one fingerprint
/// block, so the items pass hashes the blocks as it goes.
constexpr size_t kChunkRows = kFingerprintBlockRows;

/// Bytes per piece of a section appended straight from the table's memory.
constexpr size_t kPieceBytes = size_t{1} << 20;

/// One section's table entry, filled in as its bytes stream past.
struct SectionEntry {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// Pads the file to the next section boundary and starts `entry` there.
Status BeginSection(recovery::AtomicFileWriter& file, SectionEntry* entry) {
  const uint64_t at = file.bytes_appended();
  const uint64_t aligned = AlignUp(at);
  DIVEXP_RETURN_NOT_OK(file.Append(std::string(aligned - at, '\0')));
  *entry = SectionEntry{aligned, 0, 0};
  return Status::OK();
}

/// Returns piece c of a section: bytes built in `buffer`, or a view of
/// memory the table already holds.
using PieceFn = std::function<std::string_view(size_t c, std::string* buffer)>;

/// Writes one section made of `pieces` pieces, `batch` at a time:
/// `num_threads` workers build and checksum a batch, then the calling
/// thread appends it in order and joins its CRCs, so the file has one
/// writer and one batch of built pieces is held. The workers come from
/// ParallelForChunks, which is no fault-injection site: the writer fails
/// only with a Status.
Status StreamSection(recovery::AtomicFileWriter& file, size_t num_threads,
                     size_t pieces, size_t batch, const PieceFn& piece,
                     SectionEntry* entry) {
  DIVEXP_RETURN_NOT_OK(BeginSection(file, entry));
  batch = std::max<size_t>(1, std::min(batch, pieces));
  std::vector<std::string> buffers(batch);
  std::vector<std::string_view> bytes(batch);
  std::vector<uint32_t> crcs(batch);
  for (size_t first = 0; first < pieces; first += batch) {
    const size_t count = std::min(batch, pieces - first);
    ParallelForChunks(num_threads, count,
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t s = begin; s < end; ++s) {
                          bytes[s] = piece(first + s, &buffers[s]);
                          crcs[s] = recovery::Crc32(bytes[s]);
                        }
                      });
    for (size_t s = 0; s < count; ++s) {
      entry->crc = recovery::Crc32Combine(entry->crc, crcs[s],
                                          bytes[s].size());
      entry->size += bytes[s].size();
      DIVEXP_RETURN_NOT_OK(file.Append(bytes[s]));
    }
  }
  return Status::OK();
}

void PatchU32(std::string* out, size_t offset, uint32_t v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

void PatchU64(std::string* out, size_t offset, uint64_t v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

void PatchF64(std::string* out, size_t offset, double v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

/// The writer-side contract: canonical order makes the view's binary
/// search correct and implies the empty itemset sits at row 0. Create
/// already proved the order (canonical()), so this is O(1).
Status CheckCanonicalOrder(const PatternTable& table) {
  if (table.size() == 0) {
    return Status::InvalidArgument(
        "pattern table is empty; even a trivial table carries the "
        "empty itemset");
  }
  if (!table.canonical() || !table.row(0).items.empty()) {
    return Status::InvalidArgument(
        "pattern table rows are not in canonical order with the empty "
        "itemset first (run SortPatterns before Create)");
  }
  return Status::OK();
}

/// Parses the whole catalog section: one PutCatalog blob, no trailing
/// bytes.
Result<ItemCatalog> ParseCatalog(std::string_view payload) {
  recovery::ByteReader r(payload);
  DIVEXP_ASSIGN_OR_RETURN(ItemCatalog catalog, GetCatalog(&r));
  if (!r.empty()) {
    return Status::InvalidArgument(
        "artifact catalog section has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return catalog;
}

Status SectionError(ArtifactSection id, const std::string& what) {
  return Status::InvalidArgument("artifact section '" +
                                 std::string(ArtifactSectionName(id)) +
                                 "' " + what);
}

}  // namespace

const char* ArtifactSectionName(ArtifactSection id) {
  switch (id) {
    case ArtifactSection::kItems:
      return "items";
    case ArtifactSection::kItemOffsets:
      return "item_offsets";
    case ArtifactSection::kTallies:
      return "tallies";
    case ArtifactSection::kStats:
      return "stats";
    case ArtifactSection::kSubsetLinks:
      return "subset_links";
    case ArtifactSection::kLinkOffsets:
      return "link_offsets";
    case ArtifactSection::kCatalog:
      return "catalog";
  }
  return "unknown";
}

void PutCatalog(recovery::ByteWriter* w, const ItemCatalog& catalog) {
  w->PutU64(catalog.num_attributes());
  for (uint32_t a = 0; a < catalog.num_attributes(); ++a) {
    w->PutString(catalog.attribute_name(a));
    const uint32_t first = catalog.first_item(a);
    const uint32_t domain = catalog.domain_size(a);
    w->PutU64(domain);
    for (uint32_t j = 0; j < domain; ++j) {
      w->PutString(catalog.item(first + j).value);
    }
  }
}

Result<ItemCatalog> GetCatalog(recovery::ByteReader* r) {
  ItemCatalog catalog;
  DIVEXP_ASSIGN_OR_RETURN(const uint64_t num_attrs, r->GetU64());
  for (uint64_t a = 0; a < num_attrs; ++a) {
    DIVEXP_ASSIGN_OR_RETURN(std::string name, r->GetBytes());
    DIVEXP_ASSIGN_OR_RETURN(const uint64_t domain, r->GetU64());
    if (domain > r->remaining() / 8) {
      return Status::OutOfRange("catalog attribute '" + name + "' claims " +
                                std::to_string(domain) +
                                " values, more than the bytes left hold");
    }
    std::vector<std::string> values;
    values.reserve(domain);
    for (uint64_t j = 0; j < domain; ++j) {
      DIVEXP_ASSIGN_OR_RETURN(std::string value, r->GetBytes());
      values.push_back(std::move(value));
    }
    catalog.AddAttribute(std::move(name), values);
  }
  return catalog;
}

uint64_t TableFingerprint(const PatternTable& table) {
  return Fingerprint(
      table.catalog(), table.num_dataset_rows(), table.global_rate(),
      table.global_mean(), table.global_variance(), table.size(),
      [&table](size_t i) { return TableRow(table, i); });
}

uint64_t TableFingerprint(const TableView& view) {
  return Fingerprint(
      *view.catalog, view.num_dataset_rows, view.global_rate,
      view.global_mean, view.global_variance, view.size(),
      [&view](size_t i) {
        return FingerprintRow{view.row_items(i), view.tally_t(i),
                              view.tally_f(i),   view.tally_bot(i),
                              view.support(i),   view.rate(i),
                              view.divergence(i), view.t(i)};
      });
}

Status WritePatternTableArtifact(const std::string& path,
                                 const PatternTable& table,
                                 uint64_t* bytes_written,
                                 size_t num_threads) {
  obs::ScopedSpan span(obs::kStageArtifact);
  DIVEXP_RETURN_NOT_OK(CheckCanonicalOrder(table));
  const size_t n = table.size();
  num_threads = std::max<size_t>(1, num_threads);
  DIVEXP_ASSIGN_OR_RETURN(std::unique_ptr<recovery::AtomicFileWriter> file,
                          recovery::AtomicFileWriter::Create(path));

  // Header and section table go last, over this placeholder, once every
  // section's offset, size and CRC is known.
  std::string head(kArtifactHeaderSize +
                       kArtifactSectionCount * kArtifactSectionEntrySize,
                   '\0');
  DIVEXP_RETURN_NOT_OK(file->Append(head));

  SectionEntry entries[kArtifactSectionCount];
  const auto entry_of = [&entries](ArtifactSection id) {
    return &entries[static_cast<size_t>(id) - 1];
  };
  // Every section streams in pieces, two per thread at a time.
  const auto stream = [&](ArtifactSection id, size_t pieces,
                          const PieceFn& piece) -> Status {
    return StreamSection(*file, num_threads, pieces, 2 * num_threads, piece,
                         entry_of(id));
  };
  // Piece c of a row-wise section holds rows [c·kChunkRows, ...): row i's
  // bytes are [start(i), start(i + 1)) of the section, and put_row(i, at)
  // writes them at `at`.
  const size_t row_pieces = NumBlocks(n);
  const auto build_rows = [n](size_t c, std::string* out, const auto& start,
                              const auto& put_row) {
    const size_t begin = c * kChunkRows;
    const size_t end = std::min(n, begin + kChunkRows);
    out->resize(start(end) - start(begin));
    char* at = out->data();
    for (size_t i = begin; i < end; ++i) at = put_row(i, at);
    return std::string_view(*out);
  };
  const auto put = [](char* at, const auto& value) {
    std::memcpy(at, &value, sizeof(value));
    return at + sizeof(value);
  };
  // A section the table already holds contiguously is appended straight
  // from its memory; its pieces only need their CRCs.
  const auto stream_bytes = [&](ArtifactSection id,
                                std::string_view bytes) -> Status {
    return stream(id, (bytes.size() + kPieceBytes - 1) / kPieceBytes,
                  [bytes](size_t c, std::string*) {
                    return bytes.substr(c * kPieceBytes, kPieceBytes);
                  });
  };

  // One link per item: the link offsets are the item offsets too.
  const std::span<const uint64_t> row_offsets = table.link_offsets();
  const std::string_view offsets(
      reinterpret_cast<const char*>(row_offsets.data()),
      row_offsets.size_bytes());
  const auto item_start = [&](size_t i) {
    return row_offsets[i] * sizeof(uint32_t);
  };
  std::vector<uint64_t> block_hashes(row_pieces);
  DIVEXP_RETURN_NOT_OK(stream(
      ArtifactSection::kItems, row_pieces, [&](size_t c, std::string* out) {
        // A piece is one fingerprint block, which the items pass hashes.
        block_hashes[c] =
            HashBlock([&table](size_t i) { return TableRow(table, i); },
                      c * kChunkRows, std::min(n, (c + 1) * kChunkRows));
        return build_rows(c, out, item_start, [&](size_t i, char* at) {
          const Itemset& items = table.row(i).items;
          // An empty vector may hand out a null data().
          if (items.empty()) return at;
          std::memcpy(at, items.data(), items.size() * sizeof(uint32_t));
          return at + items.size() * sizeof(uint32_t);
        });
      }));
  DIVEXP_RETURN_NOT_OK(stream_bytes(ArtifactSection::kItemOffsets, offsets));
  DIVEXP_RETURN_NOT_OK(stream(
      ArtifactSection::kTallies, row_pieces, [&](size_t c, std::string* out) {
        return build_rows(
            c, out, [](size_t i) { return i * 3 * sizeof(uint64_t); },
            [&](size_t i, char* at) {
              const OutcomeCounts& counts = table.row(i).counts;
              return put(put(put(at, counts.t), counts.f), counts.bot);
            });
      }));
  DIVEXP_RETURN_NOT_OK(stream(
      ArtifactSection::kStats, row_pieces, [&](size_t c, std::string* out) {
        return build_rows(
            c, out, [](size_t i) { return i * 4 * sizeof(double); },
            [&](size_t i, char* at) {
              const PatternRow& row = table.row(i);
              return put(put(put(put(at, row.support), row.rate),
                             row.divergence),
                         row.t);
            });
      }));
  const std::span<const uint32_t> links = table.subset_links();
  DIVEXP_RETURN_NOT_OK(stream_bytes(
      ArtifactSection::kSubsetLinks,
      std::string_view(reinterpret_cast<const char*>(links.data()),
                       links.size_bytes())));
  // The same bytes as item_offsets, so the same size and CRC.
  SectionEntry* link_offsets = entry_of(ArtifactSection::kLinkOffsets);
  DIVEXP_RETURN_NOT_OK(BeginSection(*file, link_offsets));
  for (size_t at = 0; at < offsets.size(); at += kPieceBytes) {
    DIVEXP_RETURN_NOT_OK(file->Append(offsets.substr(at, kPieceBytes)));
  }
  link_offsets->size = entry_of(ArtifactSection::kItemOffsets)->size;
  link_offsets->crc = entry_of(ArtifactSection::kItemOffsets)->crc;
  recovery::ByteWriter catalog;
  PutCatalog(&catalog, table.catalog());
  DIVEXP_RETURN_NOT_OK(
      stream_bytes(ArtifactSection::kCatalog, catalog.Take()));

  for (size_t s = 0; s < kArtifactSectionCount; ++s) {
    const size_t entry =
        kArtifactHeaderSize + s * kArtifactSectionEntrySize;
    PatchU32(&head, entry, static_cast<uint32_t>(s + 1));
    PatchU64(&head, entry + 8, entries[s].offset);
    PatchU64(&head, entry + 16, entries[s].size);
    PatchU32(&head, entry + 24, entries[s].crc);
  }
  const uint64_t file_size = file->bytes_appended();
  PatchU64(&head, 0, kArtifactMagic);
  PatchU32(&head, 8, kArtifactVersion);
  PatchU32(&head, 12, kArtifactEndianTag);
  PatchU64(&head, 16, file_size);
  PatchU64(&head, 24,
           FoldFingerprint(table.catalog(), table.num_dataset_rows(),
                           table.global_rate(), table.global_mean(),
                           table.global_variance(), n, block_hashes));
  PatchU64(&head, 32, n);
  PatchU64(&head, 40, table.num_dataset_rows());
  PatchF64(&head, 48, table.global_rate());
  PatchF64(&head, 56, table.global_mean());
  PatchF64(&head, 64, table.global_variance());
  PatchU32(&head, 72, kArtifactSectionCount);
  PatchU32(&head, 76,
           recovery::Crc32(head.data() + kArtifactHeaderSize,
                           kArtifactSectionCount *
                               kArtifactSectionEntrySize));
  PatchU32(&head, 80, recovery::Crc32(head.data(), 80));
  DIVEXP_RETURN_NOT_OK(file->WriteAt(0, head));
  DIVEXP_RETURN_NOT_OK(file->Commit());
  if (bytes_written != nullptr) *bytes_written = file_size;
  return Status::OK();
}

PatternTableArtifact::~PatternTableArtifact() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

Status PatternTableArtifact::Attach(ArtifactValidation validation) {
  constexpr size_t kMinSize =
      kArtifactHeaderSize + kArtifactSectionCount * kArtifactSectionEntrySize;
  if (size_ < kMinSize) {
    return Status::InvalidArgument(
        "artifact is " + std::to_string(size_) +
        " bytes, smaller than the " + std::to_string(kMinSize) +
        "-byte header + section table");
  }
  const auto rd_u32 = [&](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };
  const auto rd_u64 = [&](size_t off) {
    uint64_t v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };
  const auto rd_f64 = [&](size_t off) {
    double v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };

  const uint64_t magic = rd_u64(0);
  if (magic != kArtifactMagic) {
    uint64_t swapped = 0;
    for (size_t i = 0; i < 8; ++i) {
      swapped = (swapped << 8) | ((magic >> (8 * i)) & 0xFF);
    }
    if (swapped == kArtifactMagic) {
      return Status::InvalidArgument(
          "artifact was written on a host of the opposite endianness; "
          "re-run `divexp --save-artifact` on this host");
    }
    return Status::InvalidArgument(
        "not a pattern-table artifact (bad magic)");
  }
  info_.version = rd_u32(8);
  if (info_.version != kArtifactVersion) {
    return Status::InvalidArgument(
        "artifact version " + std::to_string(info_.version) +
        " is not supported (this build reads version " +
        std::to_string(kArtifactVersion) +
        "); re-run `divexp --save-artifact` to rewrite it");
  }
  if (rd_u32(12) != kArtifactEndianTag) {
    return Status::InvalidArgument(
        "artifact endianness tag mismatch; the file was written on a "
        "host with a different byte order");
  }
  if (rd_u32(80) != recovery::Crc32(base_, 80)) {
    return Status::InvalidArgument("artifact header CRC mismatch");
  }
  // The reserved word sits after the header CRC, so it is validated
  // explicitly; a future format revision can repurpose it behind a
  // version bump without colliding with older files carrying noise there.
  if (rd_u32(84) != 0) {
    return Status::InvalidArgument(
        "artifact reserved header field is not zero");
  }
  info_.file_size = rd_u64(16);
  if (info_.file_size != size_) {
    return Status::InvalidArgument(
        "artifact header claims " + std::to_string(info_.file_size) +
        " bytes but the file holds " + std::to_string(size_));
  }
  info_.fingerprint = rd_u64(24);
  info_.num_rows = rd_u64(32);
  info_.num_dataset_rows = rd_u64(40);
  info_.global_rate = rd_f64(48);
  info_.global_mean = rd_f64(56);
  info_.global_variance = rd_f64(64);
  if (rd_u32(72) != kArtifactSectionCount) {
    return Status::InvalidArgument(
        "artifact declares " + std::to_string(rd_u32(72)) +
        " sections, format v" + std::to_string(kArtifactVersion) + " has " +
        std::to_string(kArtifactSectionCount));
  }
  if (rd_u32(76) !=
      recovery::Crc32(base_ + kArtifactHeaderSize,
                      kArtifactSectionCount * kArtifactSectionEntrySize)) {
    return Status::InvalidArgument("artifact section-table CRC mismatch");
  }

  info_.sections.clear();
  info_.sections.reserve(kArtifactSectionCount);
  for (size_t s = 0; s < kArtifactSectionCount; ++s) {
    const size_t entry =
        kArtifactHeaderSize + s * kArtifactSectionEntrySize;
    ArtifactSectionInfo sec;
    const uint32_t id = rd_u32(entry);
    if (id != s + 1) {
      return Status::InvalidArgument(
          "artifact section " + std::to_string(s) + " has id " +
          std::to_string(id) + ", expected " + std::to_string(s + 1));
    }
    sec.id = static_cast<ArtifactSection>(id);
    sec.offset = rd_u64(entry + 8);
    sec.size = rd_u64(entry + 16);
    sec.crc = rd_u32(entry + 24);
    if (sec.offset % kArtifactAlignment != 0) {
      return SectionError(sec.id, "offset " + std::to_string(sec.offset) +
                                      " is not 64-byte aligned");
    }
    if (sec.offset < kMinSize || sec.offset > size_ ||
        sec.size > size_ - sec.offset) {
      return SectionError(sec.id, "extends past the end of the file");
    }
    info_.sections.push_back(sec);
  }

  // O(1) structural arithmetic: every section size must agree with the
  // header's row count before any span is formed.
  const uint64_t n = info_.num_rows;
  if (n > size_ / 8) {
    return Status::InvalidArgument(
        "artifact claims " + std::to_string(n) +
        " rows, more than the file could hold");
  }
  const ArtifactSectionInfo& sec_items = info_.sections[0];
  const ArtifactSectionInfo& sec_ioff = info_.sections[1];
  const ArtifactSectionInfo& sec_tallies = info_.sections[2];
  const ArtifactSectionInfo& sec_stats = info_.sections[3];
  const ArtifactSectionInfo& sec_links = info_.sections[4];
  const ArtifactSectionInfo& sec_loff = info_.sections[5];
  const ArtifactSectionInfo& sec_catalog = info_.sections[6];
  if (sec_items.size % 4 != 0) {
    return SectionError(sec_items.id, "size is not a multiple of 4");
  }
  const uint64_t total_items = sec_items.size / 4;
  if (sec_ioff.size != (n + 1) * 8) {
    return SectionError(sec_ioff.id,
                        "size disagrees with the header row count");
  }
  if (sec_tallies.size != n * 24) {
    return SectionError(sec_tallies.id,
                        "size disagrees with the header row count");
  }
  if (sec_stats.size != n * 32) {
    return SectionError(sec_stats.id,
                        "size disagrees with the header row count");
  }
  if (sec_links.size != sec_items.size) {
    return SectionError(sec_links.id,
                        "size disagrees with the items section");
  }
  if (sec_loff.size != (n + 1) * 8) {
    return SectionError(sec_loff.id,
                        "size disagrees with the header row count");
  }

  view_ = TableView{};
  view_.items = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(base_ + sec_items.offset),
      total_items);
  view_.item_offsets = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(base_ + sec_ioff.offset), n + 1);
  view_.tallies = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(base_ + sec_tallies.offset),
      3 * n);
  view_.stats = std::span<const double>(
      reinterpret_cast<const double*>(base_ + sec_stats.offset), 4 * n);
  view_.subset_links = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(base_ + sec_links.offset),
      total_items);
  view_.link_offsets = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(base_ + sec_loff.offset), n + 1);

  // Endpoint checks are O(1); interior offset entries are only proven
  // monotone in the full tier. A header-tier open therefore hands out a
  // view whose interior offsets are untrusted — TableView's accessors
  // clamp every span and the query engine's row_ok/link checks turn
  // interior corruption into clean errors (see serve/query.h).
  if (view_.item_offsets.front() != 0 ||
      view_.item_offsets.back() != total_items) {
    return SectionError(sec_ioff.id,
                        "does not span the items section exactly");
  }
  if (view_.link_offsets.front() != 0 ||
      view_.link_offsets.back() != total_items) {
    return SectionError(sec_loff.id,
                        "does not span the subset-links section exactly");
  }

  // The catalog is parsed (and CRC-checked) even at the header tier:
  // it is O(attributes), and every query path needs item names.
  const std::string_view catalog_bytes(
      reinterpret_cast<const char*>(base_ + sec_catalog.offset),
      sec_catalog.size);
  if (recovery::Crc32(catalog_bytes) != sec_catalog.crc) {
    return SectionError(sec_catalog.id, "CRC mismatch");
  }
  DIVEXP_ASSIGN_OR_RETURN(catalog_, ParseCatalog(catalog_bytes));

  view_.catalog = &catalog_;
  view_.num_dataset_rows = info_.num_dataset_rows;
  view_.global_rate = info_.global_rate;
  view_.global_mean = info_.global_mean;
  view_.global_variance = info_.global_variance;
  view_.fingerprint = info_.fingerprint;

  if (validation == ArtifactValidation::kFull) {
    DIVEXP_RETURN_NOT_OK(ValidateFully());
  }
  return Status::OK();
}

Status PatternTableArtifact::ValidateFully() const {
  for (const ArtifactSectionInfo& sec : info_.sections) {
    if (recovery::Crc32(base_ + sec.offset, sec.size) != sec.crc) {
      return SectionError(sec.id, "CRC mismatch");
    }
  }
  const size_t n = view_.size();
  const uint64_t total_items = view_.items.size();
  const uint32_t num_items =
      view_.catalog != nullptr ? view_.catalog->num_items() : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t begin = view_.item_offsets[i];
    const uint64_t end = view_.item_offsets[i + 1];
    if (begin > end || end > total_items) {
      return Status::InvalidArgument(
          "artifact item offsets are not monotone at row " +
          std::to_string(i));
    }
    if (view_.link_offsets[i] != begin || view_.link_offsets[i + 1] != end) {
      return Status::InvalidArgument(
          "artifact link offsets disagree with item offsets at row " +
          std::to_string(i));
    }
    const ItemSpan items = view_.row_items(i);
    for (size_t j = 0; j < items.size(); ++j) {
      if (items[j] >= num_items) {
        return Status::InvalidArgument(
            "artifact row " + std::to_string(i) + " references item " +
            std::to_string(items[j]) + " outside the catalog");
      }
      if (j > 0 && items[j - 1] >= items[j]) {
        return Status::InvalidArgument(
            "artifact row " + std::to_string(i) +
            " items are not strictly increasing");
      }
    }
    if (i == 0 && !items.empty()) {
      return Status::InvalidArgument(
          "artifact row 0 is not the empty itemset");
    }
    if (i > 0 && CanonicalCompare(view_.row_items(i - 1), items) >= 0) {
      return Status::InvalidArgument(
          "artifact rows are not in canonical order at row " +
          std::to_string(i));
    }
  }
  for (const uint32_t link : view_.subset_links) {
    if (link != PatternTable::kNoLink && link >= n) {
      return Status::InvalidArgument(
          "artifact subset link " + std::to_string(link) +
          " points past the last row");
    }
  }
  const uint64_t recomputed = TableFingerprint(view_);
  if (recomputed != info_.fingerprint) {
    return Status::InvalidArgument(
        "artifact fingerprint mismatch: header says " +
        std::to_string(info_.fingerprint) + ", content hashes to " +
        std::to_string(recomputed));
  }
  return Status::OK();
}

Result<std::unique_ptr<PatternTableArtifact>> PatternTableArtifact::Open(
    const std::string& path, ArtifactValidation validation) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open artifact '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(
        "cannot stat artifact '" + path + "': " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("artifact '" + path + "' is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap artifact '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<PatternTableArtifact> artifact(
      new PatternTableArtifact());
  artifact->map_ = map;
  artifact->map_len_ = size;
  artifact->base_ = static_cast<const uint8_t*>(map);
  artifact->size_ = size;
  DIVEXP_RETURN_NOT_OK(artifact->Attach(validation));
  return artifact;
}

Result<std::unique_ptr<PatternTableArtifact>>
PatternTableArtifact::FromBuffer(std::string bytes,
                                 ArtifactValidation validation) {
  std::unique_ptr<PatternTableArtifact> artifact(
      new PatternTableArtifact());
  // Copy into u64 storage: the columnar sections are reinterpreted in
  // place, so the base must be 8-byte aligned (a std::string's is not
  // guaranteed to be).
  artifact->buffer_.resize(bytes.size() / 8 + 1, 0);
  std::memcpy(artifact->buffer_.data(), bytes.data(), bytes.size());
  artifact->base_ =
      reinterpret_cast<const uint8_t*>(artifact->buffer_.data());
  artifact->size_ = bytes.size();
  DIVEXP_RETURN_NOT_OK(artifact->Attach(validation));
  return artifact;
}

Result<ServingTable> OpenServingTable(const std::string& path,
                                      ArtifactValidation validation) {
  ServingTable table;
  DIVEXP_ASSIGN_OR_RETURN(table.artifact,
                          PatternTableArtifact::Open(path, validation));
  obs::MetricsRegistry::Default().GetCounter("serve.open.mmap")->Add(1);
  return table;
}

}  // namespace serve
}  // namespace divexp
