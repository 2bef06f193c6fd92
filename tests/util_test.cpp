// Unit tests for the util library: stats accumulators, RNG, tables, CSV,
// args parsing and the flat map.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace snooze::util;

// --- RunningStats -----------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double x : {4.0, 2.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(RunningStats, VarianceMatchesDefinition) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  // Sample variance of {1,2,3,4} = 5/3.
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.add(1.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// --- Percentiles --------------------------------------------------------------

TEST(Percentiles, MedianOfOddCount) {
  Percentiles p;
  for (double x : {5.0, 1.0, 3.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(Percentiles, InterpolatesBetweenSamples) {
  Percentiles p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.25), 2.5);
}

TEST(Percentiles, ExtremesAreMinMax) {
  Percentiles p;
  for (double x : {9.0, -2.0, 4.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.min(), -2.0);
  EXPECT_DOUBLE_EQ(p.max(), 9.0);
}

TEST(Percentiles, MeanAndEmptyBehaviour) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  p.add(2.0);
  p.add(4.0);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);
}

TEST(Percentiles, SingleSampleEveryQuantile) {
  Percentiles p;
  p.add(7.5);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(p.percentile(0.99), 7.5);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 7.5);
}

TEST(Percentiles, QuantileClampedToValidRange) {
  Percentiles p;
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(2.0), 2.0);
}

TEST(Percentiles, QueryThenAddThenQuery) {
  Percentiles p;
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.median(), 1.0);
  p.add(3.0);  // invalidates sort cache
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
}

// --- TimeWeighted --------------------------------------------------------------

TEST(TimeWeighted, IntegralOfConstant) {
  TimeWeighted tw(0.0, 2.0);
  EXPECT_DOUBLE_EQ(tw.integral(5.0), 10.0);
}

TEST(TimeWeighted, PiecewiseIntegral) {
  TimeWeighted tw(0.0, 1.0);
  tw.set(2.0, 3.0);  // 1.0 for [0,2), then 3.0
  EXPECT_DOUBLE_EQ(tw.integral(4.0), 2.0 + 6.0);
  EXPECT_DOUBLE_EQ(tw.average(4.0), 2.0);
}

TEST(TimeWeighted, NonZeroStartTime) {
  TimeWeighted tw(10.0, 4.0);
  tw.set(12.0, 0.0);
  EXPECT_DOUBLE_EQ(tw.integral(20.0), 8.0);
  EXPECT_DOUBLE_EQ(tw.average(20.0), 0.8);
}

TEST(TimeWeighted, ZeroLengthIntervalAddsNothing) {
  TimeWeighted w(0.0, 5.0);
  w.set(2.0, 3.0);
  w.set(2.0, 9.0);  // same instant: no area accrues for the overwritten value
  EXPECT_DOUBLE_EQ(w.integral(2.0), 10.0);
  EXPECT_DOUBLE_EQ(w.current(), 9.0);
  EXPECT_DOUBLE_EQ(w.integral(3.0), 19.0);
}

TEST(TimeWeighted, AverageOverZeroSpanIsCurrentValue) {
  TimeWeighted w(4.0, 2.5);
  EXPECT_DOUBLE_EQ(w.average(4.0), 2.5);
}

TEST(TimeWeighted, CurrentValueTracksLastSet) {
  TimeWeighted tw;
  tw.set(1.0, 42.0);
  EXPECT_DOUBLE_EQ(tw.current(), 42.0);
  EXPECT_DOUBLE_EQ(tw.last_update(), 1.0);
}

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != b.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng(7);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(w), 1u);
  }
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  Rng rng(7);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(w), w.size());
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(7);
  const std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // The child stream is distinct from the parent's continued stream.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

// --- Table ------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, PctFormatsFraction) { EXPECT_EQ(Table::pct(0.047, 1), "4.7%"); }

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
}

// --- Csv ------------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  const std::string path = testing::TempDir() + "/snooze_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b"});
    csv.write_row({"1", "2,3"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"2,3\"");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(Csv, EscapesCarriageReturnAndNewline) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
}

TEST(Csv, RowFormatsAndParsesBack) {
  const std::vector<std::string> fields = {"plain", "with,comma", "say \"hi\"",
                                           "multi\nline", "cr\rhere", ""};
  const std::string text = csv_row(fields) + "\n";
  const auto rows = parse_csv(text);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], fields);
}

TEST(Csv, ParsesMultipleRowsWithCrLf) {
  const auto rows = parse_csv("a,b\r\n\"1,5\",2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1,5", "2"}));
}

TEST(Csv, ParsesEmptyQuotedFieldDistinctFromMissing) {
  const auto rows = parse_csv("\"\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "x"}));
}

TEST(Csv, ParseThrowsOnUnterminatedQuote) {
  EXPECT_THROW(parse_csv("\"oops,1\n"), std::runtime_error);
}

TEST(Csv, RandomFieldsRoundTrip) {
  // Deterministic pseudo-random torture: every special character mixed in.
  const std::string alphabet = "ab,\"\n\r;x ";
  std::uint64_t state = 0x12345678u;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>(state >> 33);
  };
  std::vector<std::vector<std::string>> table;
  std::string text;
  for (int r = 0; r < 20; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < 4; ++c) {
      std::string field;
      const std::size_t len = next() % 6;
      for (std::size_t i = 0; i < len; ++i) field += alphabet[next() % alphabet.size()];
      row.push_back(std::move(field));
    }
    text += csv_row(row) + "\n";
    table.push_back(std::move(row));
  }
  EXPECT_EQ(parse_csv(text), table);
}

// --- Args ------------------------------------------------------------------------

TEST(Args, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--count=5", "--name=test"};
  Args args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_EQ(args.get("name", ""), "test");
}

TEST(Args, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "7"};
  Args args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 7);
}

TEST(Args, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  Args args(2, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
}

TEST(Args, FalseStringIsFalse) {
  const char* argv[] = {"prog", "--x=false", "--y=0"};
  Args args(3, argv);
  EXPECT_FALSE(args.get_bool("x", true));
  EXPECT_FALSE(args.get_bool("y", true));
}

TEST(Args, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
}

TEST(Args, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--n=1", "output.txt"};
  Args args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

// --- FlatMap -----------------------------------------------------------------

/// The map's (key, value) sequence in iteration order, through the const
/// iterators (the non-const ones are checked against them by the ops).
template <typename Map>
std::vector<std::pair<int, std::string>> contents(const Map& map) {
  std::vector<std::pair<int, std::string>> out;
  for (const auto& [key, value] : map) out.emplace_back(key, value);
  return out;
}

// Differential test against std::map: a seeded stream of operator[] writes,
// finds, counts, erases by key and by iterator, and clears, over a key range
// small enough that hits, misses and re-inserts all happen often. After
// every operation both maps must iterate the same pairs in the same order.
TEST(FlatMap, MatchesStdMapUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FlatMap<int, std::string> flat;
    std::map<int, std::string> ref;
    for (int step = 0; step < 2000; ++step) {
      const int key = rng.uniform_int(0, 63);
      const int roll = rng.uniform_int(0, 99);
      if (roll < 40) {
        const std::string value = std::to_string(step);
        flat[key] = value;
        ref[key] = value;
      } else if (roll < 55) {
        // operator[] on a present key must not insert; on an absent one it
        // inserts a default value.
        EXPECT_EQ(flat[key], ref[key]);
      } else if (roll < 70) {
        const auto it = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(it->first, rit->first);
          EXPECT_EQ(it->second, rit->second);
          it->second += "+";  // writes through the iterator land in the map
          rit->second += "+";
        }
        EXPECT_EQ(flat.count(key), ref.count(key));
      } else if (roll < 85) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else if (roll < 99) {
        // Erase by iterator: the returned iterator names the next entry.
        const auto it = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          const auto next = flat.erase(it);
          const auto rnext = ref.erase(rit);
          ASSERT_EQ(next == flat.end(), rnext == ref.end());
          if (rnext != ref.end()) {
            EXPECT_EQ(next->first, rnext->first);
          }
        }
      } else {
        flat.clear();
        ref.clear();
      }
      ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(flat.empty(), ref.empty());
      ASSERT_EQ(contents(flat), contents(ref)) << "seed " << seed << " step " << step;
    }
  }
}

TEST(FlatMap, MutableIterationWritesThrough) {
  FlatMap<int, int> map;
  for (const int k : {30, 10, 20}) map[k] = k;
  for (auto&& [key, value] : map) value += 1;
  std::vector<std::pair<int, int>> seen;
  for (const auto& [key, value] : map) seen.emplace_back(key, value);
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{{10, 11}, {20, 21}, {30, 31}}));
  // Erasing every other entry through the returned iterator.
  for (auto it = map.begin(); it != map.end();) {
    it = it->first == 20 ? map.erase(it) : std::next(it);
  }
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.count(20), 0u);
  EXPECT_EQ(map.find(30)->second, 31);
}

}  // namespace
