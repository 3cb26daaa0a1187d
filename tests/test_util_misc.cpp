#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "temp_path.hpp"

namespace hynapse::util {
namespace {

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksPartitionRange) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(12345, [&](std::size_t b, std::size_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 12345u);
}

TEST(Parallel, ZeroIterationsIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> hits(64, 0);
  parallel_for(64, [&](std::size_t i) { ++hits[i]; }, 1);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100, [](std::size_t i) {
        if (i == 57) throw std::runtime_error{"boom"};
      }),
      std::runtime_error);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRoundTrippableFile) {
  const std::string path = hynapse::testing::temp_path("csv.csv");
  {
    CsvWriter w{path};
    w.header({"vdd", "rate"});
    w.row({"0.65", "1e-2"});
    w.row_numeric({0.7, 0.025}, 4);
    w.flush();
  }
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "vdd,rate");
  std::getline(in, line);
  EXPECT_EQ(line, "0.65,1e-2");
  std::getline(in, line);
  EXPECT_EQ(line, "0.7,0.025");
  std::filesystem::remove(path);
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter{"/nonexistent_dir_xyz/file.csv"},
               std::runtime_error);
}

TEST(Table, FormatsAlignedColumns) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "900.00"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name  |"), std::string::npos);
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  // Numeric column right-aligned.
  EXPECT_NE(s.find("|   1.25 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.30911, 2), "30.91 %");
  EXPECT_EQ(Table::sci(0.00123, 2), "1.23e-03");
}

}  // namespace
}  // namespace hynapse::util
