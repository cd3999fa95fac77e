// Artifact format tests: round-trip fidelity, degenerate tables, and
// the robustness suite — truncation and byte-flip fuzzing over every
// section must produce a clean Status, never UB (CI reruns this binary
// under ASan+UBSan).
#include "serve/artifact.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/table_io.h"
#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "recovery/crc32.h"
#include "recovery/snapshot_file.h"
#include "serve/server.h"
#include "testing/artifact_bytes.h"
#include "testing/test_explore.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::ExploreForTest;
using divexp::testing::WriteArtifactBytes;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_artifact_test/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

PatternTable MakeRandomTable(uint64_t seed, size_t rows = 150,
                             size_t attrs = 3, int domain = 2,
                             double support = 0.01) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells(rows, std::vector<int>(attrs));
  std::string outcomes;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domain));
    }
    const double u = rng.Uniform();
    outcomes += (u < 0.35 ? 'T' : u < 0.8 ? 'F' : 'B');
  }
  return ExploreForTest(cells, std::vector<int>(attrs, domain), outcomes,
                        support);
}

void ExpectViewMatchesTable(const TableView& view,
                            const PatternTable& table) {
  ASSERT_EQ(view.size(), table.size());
  EXPECT_EQ(view.num_dataset_rows, table.num_dataset_rows());
  EXPECT_EQ(view.global_rate, table.global_rate());
  EXPECT_EQ(view.global_mean, table.global_mean());
  EXPECT_EQ(view.global_variance, table.global_variance());
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    const ItemSpan items = view.row_items(i);
    ASSERT_EQ(items.size(), row.items.size()) << "row " << i;
    EXPECT_TRUE(std::equal(items.begin(), items.end(),
                           row.items.begin()))
        << "row " << i;
    EXPECT_EQ(view.tally_t(i), row.counts.t);
    EXPECT_EQ(view.tally_f(i), row.counts.f);
    EXPECT_EQ(view.tally_bot(i), row.counts.bot);
    EXPECT_EQ(view.support(i), row.support);
    EXPECT_EQ(view.rate(i), row.rate);
    EXPECT_EQ(view.divergence(i), row.divergence);
    EXPECT_EQ(view.t(i), row.t);
    const std::span<const uint32_t> links = view.row_links(i);
    const std::span<const uint32_t> expected = table.SubsetLinks(i);
    ASSERT_EQ(links.size(), expected.size()) << "row " << i;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << "row " << i;
    // The catalog survived: item names resolve identically.
    for (const uint32_t item : row.items) {
      EXPECT_EQ(view.catalog->ItemName(item), table.ItemsetName({item}));
    }
  }
}

TEST(ArtifactTest, RoundTripPreservesEveryColumn) {
  const PatternTable table = MakeRandomTable(1);
  const std::string path = TempDir("roundtrip") + "/table.dvt";
  uint64_t bytes = 0;
  ASSERT_TRUE(WritePatternTableArtifact(path, table, &bytes).ok());
  EXPECT_GT(bytes, kArtifactHeaderSize);

  auto artifact = PatternTableArtifact::Open(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_EQ((*artifact)->fingerprint(), TableFingerprint(table));
  EXPECT_TRUE((*artifact)->ValidateFully().ok());

  const ArtifactInfo& info = (*artifact)->info();
  EXPECT_EQ(info.version, kArtifactVersion);
  EXPECT_EQ(info.num_rows, table.size());
  ASSERT_EQ(info.sections.size(), kArtifactSectionCount);
  for (const ArtifactSectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % kArtifactAlignment, 0u);
  }
}

// The table and its served view search the same canonical order with
// the same shared search: both find every row at the same index and
// miss the same absent keys.
TEST(ArtifactTest, TableFindAndViewFindRowAgree) {
  const PatternTable table = MakeRandomTable(5, 300, 5, 3, 0.005);
  const std::string bytes = WriteArtifactBytes(table, "find");
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const TableView& view = (*artifact)->view();
  ASSERT_EQ(view.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    const ItemSpan items(table.row(i).items);
    EXPECT_EQ(table.Find(items), std::optional<size_t>(i));
    EXPECT_EQ(view.FindRow(items), std::optional<size_t>(i));
  }
  const uint32_t num_items = table.catalog().num_items();
  Rng rng(17);
  size_t absent = 0;
  for (int probe = 0; probe < 3000; ++probe) {
    std::vector<uint32_t> ids(rng.Below(6));
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(rng.Below(num_items));
    }
    const Itemset key = MakeItemset(std::move(ids));
    const std::optional<size_t> found = table.Find(key);
    EXPECT_EQ(view.FindRow(ItemSpan(key)), found)
        << ItemsetDebugString(key);
    if (!found.has_value()) ++absent;
  }
  EXPECT_GT(absent, 500u);
}

/// 27,878 rows: every row-wise section spans several of the writer's
/// stream chunks.
const PatternTable& MultiChunkTable() {
  static const PatternTable table = MakeRandomTable(2024, 1500, 8, 3, 0.002);
  return table;
}

// Golden size, whole-file CRC32 and header fingerprint of one fixture's
// artifact: a change to how the file is assembled that moves any byte
// shows here; a deliberate format change bumps kArtifactVersion and these
// constants. Bytes 80–83 hold the CRC32 of bytes 0–79, and a CRC32 over
// a message followed by its own CRC is a constant, so the whole-file CRC
// cannot see the first 84 bytes; the fingerprint is pinned on its own.
TEST(ArtifactTest, WrittenBytesMatchGolden) {
  constexpr uint64_t kGoldenSize = 3112648;
  constexpr uint32_t kGoldenCrc = 0xF3135163u;
  constexpr uint64_t kGoldenFingerprint = 0x618532a62c91cbf4ull;
  const PatternTable& table = MultiChunkTable();
  const std::string bytes = WriteArtifactBytes(table, "golden");
  EXPECT_EQ(bytes.size(), kGoldenSize) << table.size() << " rows";
  EXPECT_EQ(recovery::Crc32(bytes), kGoldenCrc);
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&fingerprint, bytes.data() + 24, sizeof(fingerprint));
  EXPECT_EQ(version, kArtifactVersion);
  EXPECT_EQ(fingerprint, kGoldenFingerprint);
}

TEST(ArtifactTest, FingerprintAgreesBetweenTableAndArtifact) {
  const PatternTable table = MakeRandomTable(2);
  const uint64_t expected = TableFingerprint(table);

  auto bytes = WriteArtifactBytes(table, "fingerprint");
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(TableFingerprint((*artifact)->view()), expected);
  EXPECT_EQ((*artifact)->view().fingerprint, expected);
}

TEST(ArtifactTest, FingerprintDistinguishesTables) {
  EXPECT_NE(TableFingerprint(MakeRandomTable(3)),
            TableFingerprint(MakeRandomTable(4)));
}

/// min_support 0.99 over an even 50/50 attribute: nothing but the
/// empty itemset survives.
PatternTable MakeEmptyItemsetOnlyTable() {
  std::vector<std::vector<int>> cells;
  std::string outcomes;
  for (int i = 0; i < 100; ++i) {
    cells.push_back({i % 2});
    outcomes += (i % 3 == 0 ? 'T' : 'F');
  }
  return ExploreForTest(cells, {2}, outcomes, 0.99);
}

TEST(ArtifactTest, EmptyTableOnlyEmptyItemsetRoundTrips) {
  const PatternTable table = MakeEmptyItemsetOnlyTable();
  ASSERT_EQ(table.size(), 1u);

  auto bytes = WriteArtifactBytes(table, "empty");
  auto artifact = PatternTableArtifact::FromBuffer(
      bytes, ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_FALSE((*artifact)->view().FindRow(Itemset{0}).has_value());
}

TEST(ArtifactTest, SinglePatternTableRoundTrips) {
  // A constant attribute: exactly one frequent item.
  std::vector<std::vector<int>> cells(80, std::vector<int>{0});
  std::string outcomes(80, 'T');
  for (size_t i = 0; i < 40; ++i) outcomes[i] = 'F';
  const PatternTable table = ExploreForTest(cells, {1}, outcomes, 0.5);
  ASSERT_EQ(table.size(), 2u);

  auto bytes = WriteArtifactBytes(table, "single");
  auto artifact = PatternTableArtifact::FromBuffer(
      bytes, ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_EQ((*artifact)->view().FindRow(Itemset{0}), 1u);
}

TEST(ArtifactTest, EveryTruncationFailsCleanly) {
  const std::string bytes = WriteArtifactBytes(MakeRandomTable(5),
                                               "truncate");
  // Every short prefix must yield a Status, not UB. Dense coverage over
  // the header + section table, strided through the payload.
  for (size_t len = 0; len < bytes.size(); len = len < 512 ? len + 1 : len + 97) {
    auto artifact = PatternTableArtifact::FromBuffer(
        bytes.substr(0, len), ArtifactValidation::kFull);
    EXPECT_FALSE(artifact.ok()) << "prefix length " << len;
  }
  auto full = PatternTableArtifact::FromBuffer(bytes,
                                               ArtifactValidation::kFull);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

/// First item of attribute 0 as an "attr=value" spec the line protocol
/// accepts — the catalog section is intact in every corruption case
/// below, so name resolution itself is trustworthy.
std::string FirstItemSpec(const ItemCatalog& catalog) {
  return catalog.attribute_name(0) + "=" + catalog.item(0).value;
}

/// Serves a fixed query mix over a header-tier-attached artifact. The
/// explicit assertions are deliberately weak (every response is a
/// well-formed envelope); the real teeth are the ASan/UBSan reruns in
/// CI — no request may read out of range, whatever the payload holds.
void ServeMixedQueries(std::unique_ptr<PatternTableArtifact> artifact,
                       const std::string& item_spec) {
  ServingTable table;
  table.artifact = std::move(artifact);
  QueryService service(&table);
  for (const std::string& line :
       {std::string("topk k=5"),
        std::string("topk k=5 key=support order=asc"),
        std::string("corrective k=5"), std::string("stats"),
        "browse items=" + item_spec, "shapley items=" + item_spec}) {
    const std::string response = service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":"), std::string::npos) << line;
  }
}

TEST(ArtifactTest, ByteFlipsInHeaderAndSectionTableAreCaughtOnOpen) {
  const std::string bytes = WriteArtifactBytes(MakeRandomTable(6),
                                               "flip_header");
  const size_t envelope =
      kArtifactHeaderSize + kArtifactSectionCount * kArtifactSectionEntrySize;
  for (size_t pos = 0; pos < envelope; ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x40;
    auto artifact = PatternTableArtifact::FromBuffer(corrupt);
    EXPECT_FALSE(artifact.ok()) << "flipped envelope byte " << pos;
  }
}

TEST(ArtifactTest, ByteFlipsInEverySectionAreCaughtByFullValidation) {
  const PatternTable table = MakeRandomTable(7);
  const std::string bytes = WriteArtifactBytes(table, "flip_section");
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  for (const ArtifactSectionInfo& section : (*clean)->info().sections) {
    if (section.size == 0) continue;
    // Flip a few payload bytes per section (padding between sections is
    // not CRC-covered, so stay inside [offset, offset + size)).
    for (const uint64_t rel :
         {uint64_t{0}, section.size / 2, section.size - 1}) {
      std::string corrupt = bytes;
      corrupt[section.offset + rel] ^= 0x01;
      auto artifact = PatternTableArtifact::FromBuffer(
          corrupt, ArtifactValidation::kFull);
      EXPECT_FALSE(artifact.ok())
          << ArtifactSectionName(section.id) << " byte " << rel;
      // A header-tier open may accept the flip (payload CRCs are
      // deferred), but ValidateFully must then reject it — and serving
      // queries through the corrupted view must stay clean (the
      // ASan/UBSan CI rerun turns any out-of-range read into a failure).
      auto lazy = PatternTableArtifact::FromBuffer(corrupt);
      if (lazy.ok()) {
        EXPECT_FALSE((*lazy)->ValidateFully().ok())
            << ArtifactSectionName(section.id) << " byte " << rel;
        if (section.id != ArtifactSection::kCatalog) {
          const std::string spec =
              FirstItemSpec(*(*lazy)->view().catalog);
          ServeMixedQueries(std::move(*lazy), spec);
        }
      }
    }
  }
}

TEST(ArtifactTest, HeaderTierCorruptInteriorOffsetsServeCleanErrors) {
  const PatternTable table = MakeRandomTable(12);
  const std::string bytes = WriteArtifactBytes(table, "corrupt_offsets");
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& ioff = (*clean)->info().sections[1];
  ASSERT_EQ(ioff.id, ArtifactSection::kItemOffsets);

  // The review scenario: item_offsets = [0, huge, ..., total_items].
  // Interior entries are not validated at the header tier, so the open
  // succeeds — but every query touching row 0 must answer a clean
  // corruption error, not subspan out of range.
  std::string corrupt = bytes;
  const uint64_t huge = 0x7fffffffffff0000ull;
  std::memcpy(corrupt.data() + ioff.offset + 8, &huge, sizeof(huge));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());

  ServingTable serving;
  serving.artifact = std::move(*artifact);
  QueryService service(&serving);
  for (const char* line : {"topk k=5", "corrective k=5"}) {
    const std::string response = service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(response.find("corruption"), std::string::npos) << line;
  }
  // The rest of the mix must stay well-formed (ok or error, no UB).
  auto again = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(again.ok());
  const std::string spec = FirstItemSpec(*(*again)->view().catalog);
  ServeMixedQueries(std::move(*again), spec);
}

TEST(ArtifactTest, HeaderTierCorruptLinkValuesServeCleanErrors) {
  const PatternTable table = MakeRandomTable(13);
  const std::string bytes = WriteArtifactBytes(table, "corrupt_links");
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& links = (*clean)->info().sections[4];
  ASSERT_EQ(links.id, ArtifactSection::kSubsetLinks);
  ASSERT_GT(links.size, 0u);

  // Row 1's first subset link points far past the last row (but is not
  // kNoLink): Corrective indexes stats through link values, so it must
  // detect the corruption instead of reading out of range.
  std::string corrupt = bytes;
  const uint32_t bogus =
      static_cast<uint32_t>((*clean)->view().size()) + 1000;
  std::memcpy(corrupt.data() + links.offset, &bogus, sizeof(bogus));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());

  ServingTable serving;
  serving.artifact = std::move(*artifact);
  QueryService service(&serving);
  const std::string response = service.HandleLine("corrective k=5");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("corruption"), std::string::npos);

  auto again = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(again.ok());
  const std::string spec = FirstItemSpec(*(*again)->view().catalog);
  ServeMixedQueries(std::move(*again), spec);
}

TEST(ArtifactTest, HeaderTierCorruptItemIdsRenderPlaceholders) {
  const PatternTable table = MakeRandomTable(14);
  const std::string bytes = WriteArtifactBytes(table, "corrupt_items");
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& items = (*clean)->info().sections[0];
  ASSERT_EQ(items.id, ArtifactSection::kItems);
  ASSERT_GT(items.size, 0u);

  // An item id far outside the catalog: name rendering must degrade to
  // a placeholder, not trip the catalog's bounds CHECK mid-response.
  std::string corrupt = bytes;
  const uint32_t bogus = 0x40000000u;
  std::memcpy(corrupt.data() + items.offset, &bogus, sizeof(bogus));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());
  const std::string spec = FirstItemSpec(*(*artifact)->view().catalog);
  ServeMixedQueries(std::move(*artifact), spec);
}

TEST(ArtifactTest, WrongMagicAndByteSwappedMagicAreRejected) {
  std::string bytes = WriteArtifactBytes(MakeRandomTable(8), "magic");
  std::string garbage = bytes;
  garbage[0] = 'X';
  EXPECT_FALSE(PatternTableArtifact::FromBuffer(garbage).ok());

  // The same artifact written on an opposite-endian host: the magic
  // survives byte-swapped. The error must call out the endianness.
  std::string swapped = bytes;
  for (size_t i = 0; i < 4; ++i) std::swap(swapped[i], swapped[7 - i]);
  auto result = PatternTableArtifact::FromBuffer(swapped);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("endian"), std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactTest, EmptyAndMissingFilesAreRejected) {
  const std::string dir = TempDir("missing");
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/nope.dvt").ok());
  DIVEXP_CHECK_OK(recovery::WriteFileAtomic(dir + "/empty.dvt", ""));
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/empty.dvt").ok());
  EXPECT_FALSE(PatternTableArtifact::FromBuffer("").ok());
}

#if defined(DIVEXP_FAILPOINTS_ENABLED)
// The streamed write keeps the atomic-replace contract: a write that
// fails or dies at any point of the stream leaves the previous artifact
// in place and no temp file beside it.
TEST(ArtifactCrashSafetyTest, FailedWriteKeepsPreviousArtifact) {
  const PatternTable old_table = MakeRandomTable(21);
  for (const char* spec :
       {"io.atomic.write_fail@1:return-error",
        "io.atomic.write_fail@4:return-error",
        "io.atomic.write_fail@20:return-error",
        "io.atomic.mid_write@1:return-error",
        "io.atomic.mid_write@9:return-error"}) {
    SCOPED_TRACE(spec);
    const std::string dir = TempDir(std::string("crash_") + spec);
    std::filesystem::remove_all(dir);
    DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
    const std::string path = dir + "/table.dvt";
    ASSERT_TRUE(WritePatternTableArtifact(path, old_table).ok());
    const std::string old_bytes = *recovery::ReadFileToString(path);
    {
      ScopedFailPoints scope(spec);
      EXPECT_FALSE(WritePatternTableArtifact(path, MultiChunkTable()).ok());
    }
    EXPECT_EQ(*recovery::ReadFileToString(path), old_bytes);
    std::vector<std::string> entries;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      entries.push_back(e.path().filename().string());
    }
    EXPECT_EQ(entries, std::vector<std::string>{"table.dvt"});
  }
}
#endif

TEST(ArtifactTest, OpenServingTableAcceptsArtifactsAndRejectsGarbage) {
  const PatternTable table = MakeRandomTable(11);
  const std::string dir = TempDir("sniff");
  ASSERT_TRUE(
      WritePatternTableArtifact(dir + "/table.dvt", table).ok());
  DIVEXP_CHECK_OK(
      recovery::WriteFileAtomic(dir + "/garbage.bin", "not a table"));

  auto via_artifact = OpenServingTable(dir + "/table.dvt");
  ASSERT_TRUE(via_artifact.ok());
  EXPECT_NE(via_artifact->artifact, nullptr);
  EXPECT_EQ(via_artifact->view().fingerprint, TableFingerprint(table));
  EXPECT_FALSE(OpenServingTable(dir + "/garbage.bin").ok());
}

TEST(ArtifactTest, OpenServingTableCountsOnlySuccessfulOpens) {
  const std::string dir = TempDir("open_counter");
  ASSERT_TRUE(
      WritePatternTableArtifact(dir + "/table.dvt", MakeRandomTable(12))
          .ok());
  obs::Counter* opens =
      obs::MetricsRegistry::Default().GetCounter("serve.open.mmap");
  const uint64_t before = opens->Value();
  ASSERT_TRUE(OpenServingTable(dir + "/table.dvt").ok());
  EXPECT_EQ(opens->Value(), before + 1);
  EXPECT_FALSE(OpenServingTable(dir + "/nope.dvt").ok());
  EXPECT_EQ(opens->Value(), before + 1);
}

TEST(ArtifactTest, ByteSwappedMagicNamesTheCommandThatRewritesIt) {
  std::string bytes = WriteArtifactBytes(MakeRandomTable(9), "swapped");
  for (size_t i = 0; i < 4; ++i) std::swap(bytes[i], bytes[7 - i]);
  auto result = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("divexp --save-artifact"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactTest, VersionOneHeaderNamesTheCommandThatRewritesIt) {
  std::string bytes = WriteArtifactBytes(MakeRandomTable(9), "v1");
  const uint32_t old_version = 1;
  std::memcpy(bytes.data() + 8, &old_version, sizeof(old_version));
  const uint32_t header_crc = recovery::Crc32(bytes.data(), 80);
  std::memcpy(bytes.data() + 80, &header_crc, sizeof(header_crc));
  auto result = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version 1"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("divexp --save-artifact"),
            std::string::npos)
      << result.status().ToString();
}

// The writer builds pieces on its workers and appends them on one
// thread: the bytes do not depend on the thread count, for a table of
// many pieces, one smaller than a piece, and the empty itemset alone.
TEST(ArtifactWriterThreadsTest, BytesIdenticalAtEveryThreadCount) {
  const PatternTable small = MakeRandomTable(1);
  const PatternTable empty = MakeEmptyItemsetOnlyTable();
  ASSERT_LT(small.size(), 4096u);
  ASSERT_EQ(empty.size(), 1u);
  for (const PatternTable* table : {&MultiChunkTable(), &small, &empty}) {
    SCOPED_TRACE(table->size());
    const std::string serial = WriteArtifactBytes(*table, "threads");
    for (const size_t threads : {2, 3, 4, 8}) {
      EXPECT_EQ(WriteArtifactBytes(*table, "threads", threads), serial)
          << "threads " << threads;
    }
    auto artifact =
        PatternTableArtifact::FromBuffer(serial, ArtifactValidation::kFull);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  }
}

// A CSV reload with its rows shuffled (the empty itemset kept first) is
// a valid table whose rows are not in canonical order; the writer
// refuses it instead of writing a file its binary search would misread.
TEST(ArtifactWriterThreadsTest, NonCanonicalTableIsRefused) {
  const PatternTable table = MakeRandomTable(31, 80, 4, 3, 0.02);
  ASSERT_GT(table.size(), 100u);
  const std::string csv = WritePatternTableCsv(table);
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = csv.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(csv.substr(start, nl + 1 - start));
  }
  ASSERT_EQ(lines.size(), table.size() + 1);
  std::vector<std::string> body(lines.begin() + 2, lines.end());
  Rng shuffle(3);
  shuffle.Shuffle(&body);
  std::string shuffled_csv = lines[0] + lines[1];
  for (const std::string& line : body) shuffled_csv += line;
  auto shuffled = ReadPatternTableCsv(shuffled_csv, table.num_dataset_rows());
  ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
  ASSERT_TRUE(shuffled->row(0).items.empty());
  EXPECT_FALSE(shuffled->canonical());
  const std::string dir = TempDir("noncanonical");
  for (const size_t threads : {1, 4}) {
    const Status status = WritePatternTableArtifact(
        dir + "/table.dvt", *shuffled, nullptr, threads);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  EXPECT_FALSE(recovery::FileExists(dir + "/table.dvt"));
}

// The header fingerprint the writer folds from its per-piece block
// hashes equals TableFingerprint of the table and of the view, at every
// writer thread count.
TEST(ArtifactFingerprintTest, SameAtEveryThreadCountForTableAndView) {
  const PatternTable& table = MultiChunkTable();
  const uint64_t expected = TableFingerprint(table);
  for (const size_t threads : {1, 2, 3, 4, 8}) {
    auto artifact = PatternTableArtifact::FromBuffer(
        WriteArtifactBytes(table, "fp_threads", threads));
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ((*artifact)->fingerprint(), expected) << threads;
    EXPECT_EQ(TableFingerprint((*artifact)->view()), expected) << threads;
  }
}

/// The columns of a view, copied so one value can be changed at a time.
struct ViewColumns {
  std::vector<uint32_t> items;
  std::vector<uint64_t> item_offsets;
  std::vector<uint64_t> tallies;
  std::vector<double> stats;
  ItemCatalog catalog;
  TableView base;

  explicit ViewColumns(const TableView& view)
      : items(view.items.begin(), view.items.end()),
        item_offsets(view.item_offsets.begin(), view.item_offsets.end()),
        tallies(view.tallies.begin(), view.tallies.end()),
        stats(view.stats.begin(), view.stats.end()),
        catalog(*view.catalog),
        base(view) {}

  uint64_t Fingerprint() const {
    TableView view = base;
    view.items = items;
    view.item_offsets = item_offsets;
    view.tallies = tallies;
    view.stats = stats;
    view.catalog = &catalog;
    return TableFingerprint(view);
  }
};

double FlipLowBit(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(bits));
  return v;
}

// Every logical value feeds the fingerprint: changing any one item,
// tally, stat bit, catalog label or global moves it.
TEST(ArtifactFingerprintTest, MovesWithEveryLogicalValue) {
  const PatternTable& table = MultiChunkTable();
  auto artifact = PatternTableArtifact::FromBuffer(
      WriteArtifactBytes(table, "fp_values"));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  const ViewColumns original((*artifact)->view());
  const uint64_t base = original.Fingerprint();
  ASSERT_EQ(base, TableFingerprint(table));

  for (const size_t at : {size_t{0}, original.items.size() / 2,
                          original.items.size() - 1}) {
    ViewColumns c = original;
    c.items[at] ^= 1;
    EXPECT_NE(c.Fingerprint(), base) << "item " << at;
  }
  for (const size_t at : {size_t{0}, original.tallies.size() / 3,
                          original.tallies.size() - 1}) {
    ViewColumns c = original;
    c.tallies[at] += 1;
    EXPECT_NE(c.Fingerprint(), base) << "tally " << at;
  }
  for (const size_t at : {size_t{1}, original.stats.size() / 2 + 2,
                          original.stats.size() - 1}) {
    ViewColumns c = original;
    c.stats[at] = FlipLowBit(c.stats[at]);
    EXPECT_NE(c.Fingerprint(), base) << "stat " << at;
    c.stats[at] = -original.stats[at];
    EXPECT_NE(c.Fingerprint(), base) << "stat sign " << at;
  }
  {
    ViewColumns c = original;
    ItemCatalog relabeled;
    for (uint32_t a = 0; a < c.catalog.num_attributes(); ++a) {
      std::vector<std::string> values;
      for (uint32_t j = 0; j < c.catalog.domain_size(a); ++j) {
        values.push_back(c.catalog.item(c.catalog.first_item(a) + j).value);
      }
      if (a == c.catalog.num_attributes() - 1) values.back() += "'";
      relabeled.AddAttribute(c.catalog.attribute_name(a), values);
    }
    c.catalog = relabeled;
    EXPECT_NE(c.Fingerprint(), base) << "catalog label";
  }
  {
    ViewColumns c = original;
    c.base.num_dataset_rows += 1;
    EXPECT_NE(c.Fingerprint(), base) << "dataset rows";
  }
  for (double TableView::*global :
       {&TableView::global_rate, &TableView::global_mean,
        &TableView::global_variance}) {
    ViewColumns c = original;
    c.base.*global = FlipLowBit(c.base.*global);
    EXPECT_NE(c.Fingerprint(), base) << "global";
  }
}

// A hand-built table: attributes a = {x, y} (items 0, 1) and
// b = {u, v} (items 2, 3), rows in canonical order.
PatternTable MakeSmallTable(const std::string& a_first_label,
                            uint64_t pair_t, size_t num_rows) {
  ItemCatalog catalog;
  catalog.AddAttribute("a", {a_first_label, "y"});
  catalog.AddAttribute("b", {"u", "v"});
  std::vector<MinedPattern> mined = {
      {Itemset{}, {4, 4, 2}},  {Itemset{0}, {3, 1, 1}},
      {Itemset{1}, {1, 3, 1}}, {Itemset{2}, {2, 2, 0}},
      {Itemset{0, 2}, {pair_t, 0, 0}},
  };
  auto table = PatternTable::Create(std::move(mined), std::move(catalog),
                                    num_rows);
  DIVEXP_CHECK_OK(table.status());
  return std::move(table).value();
}

// The differential harnesses call two tables bit-identical when their
// artifact bytes are equal; the bytes must therefore be deterministic
// and move with every logical column.
TEST(ArtifactBytesTest, DeterministicAndSensitiveToEveryLogicalColumn) {
  const std::string base = WriteArtifactBytes(MakeSmallTable("x", 2, 10));
  EXPECT_EQ(WriteArtifactBytes(MakeSmallTable("x", 2, 10)), base);
  EXPECT_NE(WriteArtifactBytes(MakeSmallTable("x", 1, 10)), base)
      << "one tally changed";
  EXPECT_NE(WriteArtifactBytes(MakeSmallTable("X", 2, 10)), base)
      << "one catalog label changed";
  EXPECT_NE(WriteArtifactBytes(MakeSmallTable("x", 2, 12)), base)
      << "dataset row count changed";
}

ItemCatalog MakeCodecCatalog() {
  ItemCatalog catalog;
  catalog.AddAttribute("sex", {"Female", "Male"});
  catalog.AddAttribute("constant", {""});
  catalog.AddAttribute("age", {"<=25", "(25-45]", ">45"});
  return catalog;
}

void ExpectCatalogsEqual(const ItemCatalog& got, const ItemCatalog& want) {
  ASSERT_EQ(got.num_attributes(), want.num_attributes());
  ASSERT_EQ(got.num_items(), want.num_items());
  for (uint32_t a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.attribute_name(a), want.attribute_name(a));
    EXPECT_EQ(got.first_item(a), want.first_item(a));
    EXPECT_EQ(got.domain_size(a), want.domain_size(a));
  }
  for (uint32_t id = 0; id < want.num_items(); ++id) {
    EXPECT_EQ(got.item(id).attribute, want.item(id).attribute);
    EXPECT_EQ(got.item(id).value, want.item(id).value);
  }
}

TEST(CatalogCodecTest, RoundTripReproducesItemIdsAndStopsAtTheBlobEnd) {
  const ItemCatalog catalog = MakeCodecCatalog();
  recovery::ByteWriter w;
  PutCatalog(&w, catalog);
  w.PutU64(0xFEEDFACEull);  // whatever follows the blob stays unread
  recovery::ByteReader r(w.data());
  auto parsed = GetCatalog(&r);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectCatalogsEqual(*parsed, catalog);
  ASSERT_EQ(r.remaining(), 8u);
  EXPECT_EQ(*r.GetU64(), 0xFEEDFACEull);
}

TEST(CatalogCodecTest, EmptyCatalogIsOneZeroCount) {
  recovery::ByteWriter w;
  PutCatalog(&w, ItemCatalog());
  EXPECT_EQ(w.data(), std::string(8, '\0'));
  recovery::ByteReader r(w.data());
  auto parsed = GetCatalog(&r);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_attributes(), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(CatalogCodecTest, EveryTruncationFailsCleanly) {
  recovery::ByteWriter w;
  PutCatalog(&w, MakeCodecCatalog());
  const std::string& blob = w.data();
  for (size_t len = 0; len < blob.size(); ++len) {
    recovery::ByteReader r(std::string_view(blob).substr(0, len));
    EXPECT_FALSE(GetCatalog(&r).ok()) << "prefix of " << len << " bytes";
  }
}

// One attribute "a" whose value count is `domain`, followed by
// `present` empty value labels (8 bytes each).
std::string CatalogClaiming(uint64_t domain, uint64_t present) {
  recovery::ByteWriter w;
  w.PutU64(1);
  w.PutString("a");
  w.PutU64(domain);
  for (uint64_t j = 0; j < present; ++j) w.PutString("");
  return w.Take();
}

TEST(CatalogCodecTest, ValueCountIsBoundedByTheBytesLeft) {
  {
    const std::string exact = CatalogClaiming(3, 3);
    recovery::ByteReader r(exact);
    auto parsed = GetCatalog(&r);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->domain_size(0), 3u);
  }
  for (const uint64_t domain : {uint64_t{4}, uint64_t{1} << 40,
                                ~uint64_t{0}}) {
    SCOPED_TRACE(domain);
    const std::string claim = CatalogClaiming(domain, 3);
    recovery::ByteReader r(claim);
    auto parsed = GetCatalog(&r);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(CatalogCodecTest, ArtifactCatalogSectionIsExactlyOneBlob) {
  const PatternTable table = MakeRandomTable(13);
  const std::string bytes = WriteArtifactBytes(table, "catalog_section");
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  recovery::ByteWriter w;
  PutCatalog(&w, table.catalog());
  bool found = false;
  for (const ArtifactSectionInfo& s : (*artifact)->info().sections) {
    if (s.id != ArtifactSection::kCatalog) continue;
    found = true;
    ASSERT_LE(s.offset + s.size, bytes.size());
    EXPECT_EQ(bytes.substr(s.offset, s.size), w.data());
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace serve
}  // namespace divexp
