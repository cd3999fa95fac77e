#include "core/table_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/shapley.h"
#include "testing/test_explore.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::ExploreForTest;

PatternTable MakeTable() {
  return ExploreForTest(
      {{0, 0}, {0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 1}, {1, 1}},
      {2, 2}, "FFFTTTTB", 0.1);
}

TEST(TableIoTest, CsvHasHeaderAndAllRows) {
  const PatternTable table = MakeTable();
  const std::string csv = WritePatternTableCsv(table);
  EXPECT_NE(csv.find("itemset,length,support"), std::string::npos);
  // header + one line per pattern (incl. baseline).
  EXPECT_EQ(static_cast<size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            table.size() + 1);
  EXPECT_NE(csv.find("a0=v0 AND a1=v1"), std::string::npos);
}

TEST(TableIoTest, RoundTripPreservesEverything) {
  const PatternTable table = MakeTable();
  const std::string csv = WritePatternTableCsv(table);
  auto back = ReadPatternTableCsv(csv, table.num_dataset_rows());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), table.size());
  EXPECT_DOUBLE_EQ(back->global_rate(), table.global_rate());
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    // Item ids may be renumbered; match by rendered name.
    auto parsed = back->ParseItemset([&] {
      std::vector<std::pair<std::string, std::string>> desc;
      for (uint32_t id : row.items) {
        const auto& info = table.catalog().item(id);
        desc.emplace_back(
            table.catalog().attribute_name(info.attribute), info.value);
      }
      return desc;
    }());
    ASSERT_TRUE(parsed.ok());
    auto j = back->Find(*parsed);
    ASSERT_TRUE(j.has_value()) << table.ItemsetName(row.items);
    const PatternRow& other = back->row(*j);
    EXPECT_EQ(other.counts, row.counts);
    EXPECT_DOUBLE_EQ(other.support, row.support);
    EXPECT_DOUBLE_EQ(other.divergence, row.divergence);
    EXPECT_NEAR(other.t, row.t, 1e-9);
  }
}

TEST(TableIoTest, RoundTrippedTableSupportsAnalysis) {
  const PatternTable table = MakeTable();
  auto back = ReadPatternTableCsv(WritePatternTableCsv(table),
                                  table.num_dataset_rows());
  ASSERT_TRUE(back.ok());
  // Shapley over the reloaded table works and satisfies efficiency.
  auto pair = back->ParseItemset({{"a0", "v1"}, {"a1", "v1"}});
  ASSERT_TRUE(pair.ok());
  auto contributions = ShapleyContributions(*back, *pair);
  ASSERT_TRUE(contributions.ok());
  double sum = 0.0;
  for (const auto& c : *contributions) sum += c.contribution;
  EXPECT_NEAR(sum, *back->Divergence(*pair), 1e-9);
}

// An itemset as its sorted "attr=value" names, which survive the item
// renumbering of a CSV reload.
std::vector<std::string> ItemNames(const PatternTable& table,
                                   const Itemset& items) {
  std::vector<std::string> names;
  for (uint32_t id : items) {
    const auto& info = table.catalog().item(id);
    names.push_back(table.catalog().attribute_name(info.attribute) + "=" +
                    info.value);
  }
  std::sort(names.begin(), names.end());
  return names;
}

struct RowDigest {
  OutcomeCounts counts;
  double support, rate, divergence, t;
  /// Removed item's name → the linked subset's names ({"-"} = kNoLink).
  std::map<std::string, std::vector<std::string>> links;

  bool operator==(const RowDigest&) const = default;
};

std::map<std::vector<std::string>, RowDigest> Digest(
    const PatternTable& table) {
  std::map<std::vector<std::string>, RowDigest> out;
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    RowDigest d{row.counts, row.support, row.rate, row.divergence, row.t,
                {}};
    const auto links = table.SubsetLinks(i);
    for (size_t j = 0; j < links.size(); ++j) {
      d.links[ItemNames(table, {row.items[j]})[0]] =
          links[j] == PatternTable::kNoLink
              ? std::vector<std::string>{"-"}
              : ItemNames(table, table.row(links[j]).items);
    }
    out.emplace(ItemNames(table, row.items), std::move(d));
  }
  return out;
}

// CSV rows in any order reload to the same table: the reader's rows are
// not in canonical order, so the table builds its canonical permutation
// and walks the links through it.
TEST(TableIoTest, ShuffledCsvRowsReloadToTheSameTable) {
  Rng rng(31);
  std::vector<std::vector<int>> cells(80, std::vector<int>(4));
  std::string outcomes;
  for (auto& row : cells) {
    for (int& cell : row) cell = static_cast<int>(rng.Below(3));
    outcomes += rng.Bernoulli(0.4) ? 'T' : 'F';
  }
  const PatternTable table =
      ExploreForTest(cells, {3, 3, 3, 3}, outcomes, 0.02);
  ASSERT_GT(table.size(), 100u);
  const std::string csv = WritePatternTableCsv(table);
  auto canonical = ReadPatternTableCsv(csv, table.num_dataset_rows());
  ASSERT_TRUE(canonical.ok());

  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = csv.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(csv.substr(start, nl + 1 - start));
  }
  ASSERT_EQ(lines.size(), table.size() + 1);
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng shuffle(seed);
    std::vector<std::string> body(lines.begin() + 1, lines.end());
    shuffle.Shuffle(&body);
    std::string shuffled_csv = lines[0];
    for (const std::string& line : body) shuffled_csv += line;
    auto shuffled =
        ReadPatternTableCsv(shuffled_csv, table.num_dataset_rows());
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
    ASSERT_EQ(shuffled->size(), canonical->size());
    EXPECT_EQ(shuffled->global_rate(), canonical->global_rate());
    EXPECT_TRUE(Digest(*shuffled) == Digest(*canonical)) << "seed " << seed;
    for (size_t i = 0; i < shuffled->size(); ++i) {
      EXPECT_EQ(shuffled->Find(shuffled->row(i).items),
                std::optional<size_t>(i));
    }
  }
}

TEST(TableIoTest, FileRoundTrip) {
  const PatternTable table = MakeTable();
  const std::string path = "/tmp/divexp_table_io_test.csv";
  ASSERT_TRUE(WritePatternTableFile(table, path).ok());
  auto back = ReadPatternTableFile(path, table.num_dataset_rows());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), table.size());
  std::remove(path.c_str());
}

TEST(TableIoTest, ValuesWithCommasSurviveQuoting) {
  // Values containing commas (e.g. interval labels "[1,3]") must be
  // quoted on write and recovered on read.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({i % 2});
    outcomes += (i % 3 == 0) ? 'T' : 'F';
  }
  EncodedDataset ds;
  ds.num_rows = rows.size();
  ds.num_attributes = 1;
  ds.catalog.AddAttribute("prior", {"[1,3]", ">3"});
  for (const auto& row : rows) {
    ds.cells.push_back(static_cast<uint32_t>(row[0]));
  }
  ExplorerOptions opts;
  opts.min_support = 0.1;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(
      ds, testing::OutcomesFromString(outcomes));
  ASSERT_TRUE(table.ok());
  auto back = ReadPatternTableCsv(WritePatternTableCsv(*table),
                                  table->num_dataset_rows());
  ASSERT_TRUE(back.ok());
  auto item = back->ParseItemset({{"prior", "[1,3]"}});
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(back->Contains(*item));
}

TEST(TableIoTest, MissingColumnsRejected) {
  auto r = ReadPatternTableCsv("foo,bar\n1,2\n", 10);
  EXPECT_FALSE(r.ok());
}

TEST(TableIoTest, MissingBaselineRejected) {
  // A CSV without the empty-itemset row cannot define the global rate.
  const std::string csv =
      "itemset,length,support,t_count,f_count,bot_count,rate,divergence,"
      "t_stat\n"
      "a=x,1,0.5,1,1,0,0.5,0.0,0.0\n";
  auto r = ReadPatternTableCsv(csv, 4);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace divexp
