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

#include "core/table_snapshot.h"
#include "recovery/atomic_file.h"
#include "recovery/crc32.h"
#include "serve/server.h"
#include "testing/test_explore.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::ExploreForTest;

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

std::string WriteArtifactBytes(const PatternTable& table,
                               const std::string& leaf) {
  const std::string path = TempDir(leaf) + "/table.dvt";
  DIVEXP_CHECK_OK(WritePatternTableArtifact(path, table));
  auto bytes = recovery::ReadFileToString(path);
  DIVEXP_CHECK_OK(bytes.status());
  return std::move(bytes).value();
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

/// 27,878 rows: every row-wise section spans several of the writer's
/// stream chunks.
const PatternTable& MultiChunkTable() {
  static const PatternTable table = MakeRandomTable(2024, 1500, 8, 3, 0.002);
  return table;
}

// Golden size and whole-file CRC32 of one fixture's artifact: a change
// to how the file is assembled that moves any byte shows here; a
// deliberate format change bumps kArtifactVersion and these constants.
TEST(ArtifactTest, WrittenBytesMatchGolden) {
  constexpr uint64_t kGoldenSize = 3112648;
  constexpr uint32_t kGoldenCrc = 0xF3135163u;
  const PatternTable& table = MultiChunkTable();
  const std::string bytes = WriteArtifactBytes(table, "golden");
  EXPECT_EQ(bytes.size(), kGoldenSize) << table.size() << " rows";
  EXPECT_EQ(recovery::Crc32(bytes), kGoldenCrc);
}

TEST(ArtifactTest, FingerprintAgreesBetweenTableAndBothBackings) {
  const PatternTable table = MakeRandomTable(2);
  const uint64_t expected = TableFingerprint(table);

  auto bytes = WriteArtifactBytes(table, "fingerprint");
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(TableFingerprint((*artifact)->view()), expected);

  auto eager = EagerTableBacking::FromTable(table);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(TableFingerprint((*eager)->view()), expected);
  EXPECT_EQ((*eager)->view().fingerprint, expected);
}

TEST(ArtifactTest, FingerprintDistinguishesTables) {
  EXPECT_NE(TableFingerprint(MakeRandomTable(3)),
            TableFingerprint(MakeRandomTable(4)));
}

TEST(ArtifactTest, EmptyTableOnlyEmptyItemsetRoundTrips) {
  // min_support 0.99 over an even 50/50 attribute: nothing but the
  // empty itemset survives.
  std::vector<std::vector<int>> cells;
  std::string outcomes;
  for (int i = 0; i < 100; ++i) {
    cells.push_back({i % 2});
    outcomes += (i % 3 == 0 ? 'T' : 'F');
  }
  const PatternTable table = ExploreForTest(cells, {2}, outcomes, 0.99);
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

TEST(ArtifactTest, FromMemoryRequiresAlignment) {
  const std::string bytes = WriteArtifactBytes(MakeRandomTable(9),
                                               "align");
  std::vector<uint64_t> aligned((bytes.size() + 15) / 8);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  auto ok = PatternTableArtifact::FromMemory(aligned.data(), bytes.size());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  const uint8_t* misaligned =
      reinterpret_cast<const uint8_t*>(aligned.data()) + 1;
  auto bad = PatternTableArtifact::FromMemory(misaligned, bytes.size());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArtifactTest, EmptyAndMissingFilesAreRejected) {
  const std::string dir = TempDir("missing");
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/nope.dvt").ok());
  DIVEXP_CHECK_OK(recovery::WriteFileAtomic(dir + "/empty.dvt", ""));
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/empty.dvt").ok());
  EXPECT_FALSE(PatternTableArtifact::FromBuffer("").ok());
}

TEST(ArtifactTest, MigrationFromSnapshotIsLossless) {
  const PatternTable table = MakeRandomTable(10);
  const std::string dir = TempDir("migrate");
  const std::string snap = dir + "/table.snap";
  const std::string dvt = dir + "/table.dvt";
  ASSERT_TRUE(SavePatternTable(snap, table).ok());
  ASSERT_TRUE(MigrateSnapshotToArtifact(snap, dvt).ok());

  auto artifact = PatternTableArtifact::Open(dvt,
                                             ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_EQ((*artifact)->fingerprint(), TableFingerprint(table));
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

TEST(ArtifactTest, OpenServingTableSniffsBothFormatsAndRejectsGarbage) {
  const PatternTable table = MakeRandomTable(11);
  const std::string dir = TempDir("sniff");
  ASSERT_TRUE(
      WritePatternTableArtifact(dir + "/table.dvt", table).ok());
  ASSERT_TRUE(SavePatternTable(dir + "/table.snap", table).ok());
  DIVEXP_CHECK_OK(
      recovery::WriteFileAtomic(dir + "/garbage.bin", "not a table"));

  auto via_artifact = OpenServingTable(dir + "/table.dvt");
  ASSERT_TRUE(via_artifact.ok());
  EXPECT_NE(via_artifact->artifact, nullptr);
  auto via_snapshot = OpenServingTable(dir + "/table.snap");
  ASSERT_TRUE(via_snapshot.ok());
  EXPECT_NE(via_snapshot->eager, nullptr);
  EXPECT_EQ(via_artifact->view().fingerprint,
            via_snapshot->view().fingerprint);
  EXPECT_FALSE(OpenServingTable(dir + "/garbage.bin").ok());
}

}  // namespace
}  // namespace serve
}  // namespace divexp
