// Sharded failure-table builds: ShardPlanner partitions, shard-extended
// fingerprints, ShardCoordinator scatter/replay/merge, cache pruning, and
// the merge determinism contract -- merged output bit-identical to the
// monolithic build across the shard-count x thread-count matrix
// (docs/sharding.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "circuit/reference.hpp"
#include "engine/experiment_runner.hpp"
#include "engine/shard_coordinator.hpp"
#include "engine/shard_plan.hpp"
#include "engine/table_cache.hpp"
#include "mc/criteria.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"

#include "ann/mlp.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "temp_path.hpp"

namespace hynapse::engine {
namespace {

void expect_rows_identical(const mc::FailureTable& a,
                           const mc::FailureTable& b) {
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    const mc::FailureTableRow& ra = a.rows()[i];
    const mc::FailureTableRow& rb = b.rows()[i];
    EXPECT_EQ(ra.vdd, rb.vdd);
    EXPECT_EQ(ra.cell6.read_access, rb.cell6.read_access);
    EXPECT_EQ(ra.cell6.write_fail, rb.cell6.write_fail);
    EXPECT_EQ(ra.cell6.read_disturb, rb.cell6.read_disturb);
    EXPECT_EQ(ra.cell8.read_access, rb.cell8.read_access);
    EXPECT_EQ(ra.cell8.write_fail, rb.cell8.write_fail);
    EXPECT_EQ(ra.cell8.read_disturb, rb.cell8.read_disturb);
  }
}

class ShardTest : public ::testing::Test {
 protected:
  ShardTest()
      : tech_{circuit::ptm22()},
        s6_{circuit::reference_sizing_6t(tech_)},
        s8_{circuit::reference_sizing_8t(tech_)},
        array_{tech_, sram::SubArrayGeometry{}, s6_},
        cycle_{tech_, array_, circuit::Bitcell6T{tech_, s6_}},
        sampler_{tech_, s6_, s8_},
        criteria_{tech_, cycle_, s6_, s8_} {
    dir_ = hynapse::testing::fresh_temp_dir("shards");
  }
  ~ShardTest() override { std::filesystem::remove_all(dir_); }

  mc::AnalyzerOptions fast_opts(std::size_t threads = 0) const {
    mc::AnalyzerOptions o;
    o.mc_samples = 1200;
    o.is_samples = 600;
    o.threads = threads;
    return o;
  }

  TableSpec spec() const {
    TableSpec s;
    s.tech = tech_;
    s.sizing6 = s6_;
    s.sizing8 = s8_;
    s.geometry = array_.geometry();
    s.vdd_grid = {0.65, 0.70, 0.80, 0.90, 0.95};
    s.seed = 11;
    return s;
  }

  mc::FailureAnalyzer analyzer(std::size_t threads = 0) const {
    return mc::FailureAnalyzer{criteria_, sampler_, fast_opts(threads)};
  }

  circuit::Technology tech_;
  circuit::Sizing6T s6_;
  circuit::Sizing8T s8_;
  sram::SubArrayModel array_;
  sram::CycleModel cycle_;
  mc::VariationSampler sampler_;
  mc::FailureCriteria criteria_;
  std::string dir_;
};

TEST(ShardBounds, PartitionIsContiguousExhaustiveAndBalanced) {
  for (const std::size_t n : {1u, 5u, 7u, 16u}) {
    for (std::size_t count = 1; count <= n + 2; ++count) {
      const std::size_t clamped = std::min<std::size_t>(count, n);
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < clamped; ++s) {
        const auto [begin, end] = mc::shard_bounds(n, s, clamped);
        EXPECT_EQ(begin, prev_end);  // contiguous, no gaps or overlap
        EXPECT_LE(end - begin, n / clamped + 1);  // balanced within 1
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n);  // exhaustive
      EXPECT_EQ(prev_end, n);
    }
  }
  EXPECT_THROW((void)mc::shard_bounds(5, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)mc::shard_bounds(5, 0, 0), std::invalid_argument);
}

TEST(ShardFingerprint, ExtendsParentAndSeparatesShards) {
  const std::uint64_t parent = 0x1234abcd5678ef00ull;
  const std::uint64_t s0 = shard_fingerprint(parent, 0, 4);
  EXPECT_NE(s0, parent);                              // never the parent
  EXPECT_NE(s0, shard_fingerprint(parent, 1, 4));     // index matters
  EXPECT_NE(s0, shard_fingerprint(parent, 0, 5));     // count matters
  EXPECT_NE(s0, shard_fingerprint(parent + 1, 0, 4)); // provenance matters
  EXPECT_NE(shard_fingerprint(parent, 0, 1), parent); // 1-shard != merged
  EXPECT_EQ(s0, shard_fingerprint(parent, 0, 4));     // deterministic
}

TEST_F(ShardTest, PlannerPartitionsAndClamps) {
  const mc::AnalyzerOptions ao = fast_opts();
  const TableSpec s = spec();

  // Auto: one shard per voltage.
  const ShardPlan per_voltage = ShardPlanner::plan(s, ao);
  EXPECT_EQ(per_voltage.shard_count(), s.vdd_grid.size());
  EXPECT_EQ(per_voltage.table_fingerprint, table_fingerprint(s, ao));

  // Explicit count: contiguous cover of the grid, shard fingerprints chain
  // off the parent.
  ShardPlanOptions po;
  po.shard_count = 2;
  const ShardPlan two = ShardPlanner::plan(s, ao, po);
  ASSERT_EQ(two.shard_count(), 2u);
  std::vector<double> reassembled;
  for (const TableShard& shard : two.shards) {
    EXPECT_EQ(shard.fingerprint,
              shard_fingerprint(two.table_fingerprint, shard.index, 2));
    EXPECT_EQ(shard.vdd_grid.size(), shard.row_end - shard.row_begin);
    reassembled.insert(reassembled.end(), shard.vdd_grid.begin(),
                       shard.vdd_grid.end());
  }
  EXPECT_EQ(reassembled, s.vdd_grid);

  // Oversharded: clamped to the grid size.
  po.shard_count = 100;
  EXPECT_EQ(ShardPlanner::plan(s, ao, po).shard_count(), s.vdd_grid.size());

  // max_rows_per_shard: smallest count whose shards stay under the cap.
  po.shard_count = 0;
  po.max_rows_per_shard = 2;
  const ShardPlan capped = ShardPlanner::plan(s, ao, po);
  EXPECT_EQ(capped.shard_count(), 3u);  // ceil(5 / 2)
  for (const TableShard& shard : capped.shards) {
    EXPECT_LE(shard.vdd_grid.size(), 2u);
  }
}

TEST_F(ShardTest, PlannerRejectsDegenerateGrids) {
  const mc::AnalyzerOptions ao = fast_opts();
  TableSpec s = spec();
  s.vdd_grid = {};
  EXPECT_THROW((void)ShardPlanner::plan(s, ao), std::invalid_argument);
  s.vdd_grid = {0.70, 0.65};  // decreasing
  EXPECT_THROW((void)ShardPlanner::plan(s, ao), std::invalid_argument);
  s.vdd_grid = {0.65, 0.65};  // duplicate
  EXPECT_THROW((void)ShardPlanner::plan(s, ao), std::invalid_argument);
  s.vdd_grid = {-0.5, 0.65};  // non-positive
  EXPECT_THROW((void)ShardPlanner::plan(s, ao), std::invalid_argument);
}

TEST(FailureTableMerge, IsOrderInvariantAndRejectsOverlap) {
  const auto table_at = [](double vdd) {
    std::vector<mc::FailureTableRow> rows(1);
    rows[0].vdd = vdd;
    rows[0].cell6 = {0.01 * vdd, 0.0, 0.0};
    return mc::FailureTable{std::move(rows)};
  };
  std::vector<mc::FailureTable> forward;
  forward.push_back(table_at(0.65));
  forward.push_back(table_at(0.75));
  forward.push_back(table_at(0.85));
  std::vector<mc::FailureTable> shuffled;
  shuffled.push_back(table_at(0.85));
  shuffled.push_back(table_at(0.65));
  shuffled.push_back(table_at(0.75));

  const mc::FailureTable a = mc::FailureTable::merge(forward);
  const mc::FailureTable b = mc::FailureTable::merge(shuffled);
  ASSERT_EQ(a.rows().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rows()[i].vdd, b.rows()[i].vdd);
    EXPECT_EQ(a.rows()[i].cell6.read_access, b.rows()[i].cell6.read_access);
  }

  // Double-merging a shard (duplicate vdd) must throw, not corrupt.
  std::vector<mc::FailureTable> overlapping;
  overlapping.push_back(table_at(0.65));
  overlapping.push_back(table_at(0.65));
  EXPECT_THROW((void)mc::FailureTable::merge(overlapping),
               std::invalid_argument);
  EXPECT_THROW((void)mc::FailureTable::merge({}), std::invalid_argument);
}

// The acceptance gate: sharded builds merge bit-identical to the monolithic
// table for shard counts {1, 2, 5} x thread counts {1, 3, 8}.
TEST_F(ShardTest, MergedShardsBitIdenticalToMonolithicAcrossMatrix) {
  const TableSpec s = spec();
  const mc::FailureTable monolithic =
      mc::FailureTable::build(analyzer(1), s.vdd_grid, s.seed);

  for (const std::size_t shards : {1u, 2u, 5u}) {
    for (const std::size_t threads : {1u, 3u, 8u}) {
      // In-memory cache: every combination builds everything itself.
      FailureTableCache cache{""};
      ShardCoordinator coordinator{cache, threads};
      ShardPlanOptions po;
      po.shard_count = shards;
      const ShardPlan plan = ShardPlanner::plan(s, fast_opts(threads), po);
      const mc::FailureTable& merged =
          coordinator.acquire(plan, analyzer(threads));
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_rows_identical(merged, monolithic);
      EXPECT_EQ(coordinator.stats().shards_built, shards);
      EXPECT_EQ(coordinator.stats().merges, 1u);
    }
  }
}

TEST_F(ShardTest, BuildShardMatchesMonolithicSliceAndPersists) {
  const TableSpec s = spec();
  const mc::FailureTable monolithic =
      mc::FailureTable::build(analyzer(), s.vdd_grid, s.seed);

  FailureTableCache cache{dir_};
  ShardCoordinator coordinator{cache};
  ShardPlanOptions po;
  po.shard_count = 2;
  const ShardPlan plan = ShardPlanner::plan(s, fast_opts(), po);

  bool replayed = true;
  const mc::FailureTable shard1 =
      coordinator.build_shard(plan, 1, analyzer(), false, &replayed);
  EXPECT_FALSE(replayed);

  // The shard's rows are exactly the monolithic rows of its slice.
  const auto [begin, end] = mc::shard_bounds(s.vdd_grid.size(), 1, 2);
  ASSERT_EQ(shard1.rows().size(), end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    EXPECT_EQ(shard1.rows()[i - begin].vdd, monolithic.rows()[i].vdd);
    EXPECT_EQ(shard1.rows()[i - begin].cell6.read_access,
              monolithic.rows()[i].cell6.read_access);
    EXPECT_EQ(shard1.rows()[i - begin].cell8.write_fail,
              monolithic.rows()[i].cell8.write_fail);
  }

  // Persisted under the shard-extended fingerprint; a second build replays.
  const std::string path =
      cache.shard_csv_path(plan.table_fingerprint, 1, 2);
  EXPECT_TRUE(
      mc::FailureTable::load_csv(path, plan.shards[1].fingerprint)
          .has_value());
  const mc::FailureTable again =
      coordinator.build_shard(plan, 1, analyzer(), false, &replayed);
  EXPECT_TRUE(replayed);
  expect_rows_identical(again, shard1);
  EXPECT_EQ(coordinator.stats().shards_built, 1u);
  EXPECT_EQ(coordinator.stats().shards_replayed, 1u);

  EXPECT_THROW(
      (void)coordinator.build_shard(plan, 2, analyzer(), false, nullptr),
      std::invalid_argument);
}

TEST_F(ShardTest, MergeFromDiskReplaysShardsProducedElsewhere) {
  const TableSpec s = spec();
  ShardPlanOptions po;
  po.shard_count = 3;
  const ShardPlan plan = ShardPlanner::plan(s, fast_opts(), po);

  // "Elsewhere": a different coordinator/cache instance writes the shard
  // CSVs (what separate `hynapse_cli shard-build` processes do).
  {
    FailureTableCache producer_cache{dir_};
    ShardCoordinator producer{producer_cache};
    (void)producer.build_shard(plan, 0, analyzer(), false, nullptr);
    (void)producer.build_shard(plan, 2, analyzer(), false, nullptr);
  }

  FailureTableCache cache{dir_};
  ShardCoordinator coordinator{cache};
  std::vector<std::size_t> missing;
  EXPECT_FALSE(coordinator.merge_from_disk(plan, &missing).has_value());
  EXPECT_EQ(missing, (std::vector<std::size_t>{1}));

  {
    FailureTableCache producer_cache{dir_};
    ShardCoordinator producer{producer_cache};
    (void)producer.build_shard(plan, 1, analyzer(), false, nullptr);
  }
  const std::optional<mc::FailureTable> merged =
      coordinator.merge_from_disk(plan, &missing);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(missing.empty());
  expect_rows_identical(
      *merged, mc::FailureTable::build(analyzer(), s.vdd_grid, s.seed));

  // acquire() prefers replay over rebuilding: all shards exist on disk, so
  // no Monte-Carlo runs and the merged CSV is persisted for future hits.
  ShardCoordinator replayer{cache};
  const mc::FailureTable& acquired = replayer.acquire(plan, analyzer());
  expect_rows_identical(acquired, *merged);
  EXPECT_EQ(replayer.stats().shards_built, 0u);
  EXPECT_EQ(replayer.stats().shards_replayed, 3u);
  EXPECT_TRUE(
      mc::FailureTable::load_csv(cache.csv_path(plan.table_fingerprint),
                                 plan.table_fingerprint)
          .has_value());

  // And a later acquire hits the merged artifact without shard work.
  ShardCoordinator late{cache};
  (void)late.acquire(plan, analyzer());
  EXPECT_EQ(late.stats().shards_built, 0u);
  EXPECT_EQ(late.stats().shards_replayed, 0u);
  EXPECT_EQ(late.stats().table_hits, 1u);
}

TEST_F(ShardTest, RunnerSweepAndBatchAcceptShardPlans) {
  const TableSpec s = spec();
  ShardPlanOptions po;
  po.shard_count = 2;
  const ShardPlan plan = ShardPlanner::plan(s, fast_opts(), po);
  FailureTableCache cache{""};
  ShardCoordinator coordinator{cache};

  const ann::Mlp net{{784, 12, 10}, 23};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(80, 9);
  const std::vector<std::size_t> words = qnet.bank_words();
  core::EvalOptions opt;
  opt.chips = 2;

  const std::vector<SweepPoint> points{
      {core::MemoryConfig::uniform_hybrid(words, 2), 0.65},
      {core::MemoryConfig::all_6t(words), 0.80}};

  const ExperimentRunner runner{4};
  const std::vector<core::AccuracyResult> sharded = runner.run(
      qnet, EvalJob::sweep(points, opt).via(plan, analyzer(), coordinator),
      test);

  // Reference: monolithic table, shared-table job.
  const mc::FailureTable table =
      mc::FailureTable::build(analyzer(), s.vdd_grid, s.seed);
  const std::vector<core::AccuracyResult> reference =
      runner.run(qnet, EvalJob::sweep(points, opt).against(table), test);
  ASSERT_EQ(sharded.size(), reference.size());
  for (std::size_t p = 0; p < reference.size(); ++p) {
    ASSERT_EQ(sharded[p].per_chip.size(), reference[p].per_chip.size());
    for (std::size_t c = 0; c < reference[p].per_chip.size(); ++c) {
      EXPECT_EQ(sharded[p].per_chip[c], reference[p].per_chip[c]);
    }
    EXPECT_EQ(sharded[p].mean, reference[p].mean);
  }

  // Batch overload: null-table points bind to the plan's table; points
  // with an explicit table keep it.
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.70;
  rows[0].cell6 = {0.05, 0.02, 0.002};
  const mc::FailureTable other{std::move(rows)};
  const std::vector<BatchPoint> batch{
      {core::MemoryConfig::uniform_hybrid(words, 2), 0.65, nullptr, opt},
      {core::MemoryConfig::all_6t(words), 0.70, &other, opt}};
  const std::vector<core::AccuracyResult> got = runner.run(
      qnet, EvalJob::batch(batch).via(plan, analyzer(), coordinator), test);
  const std::vector<BatchPoint> bound{
      {batch[0].config, batch[0].vdd, &table, opt},
      {batch[1].config, batch[1].vdd, &other, opt}};
  const std::vector<core::AccuracyResult> want =
      runner.run(qnet, EvalJob::batch(bound), test);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].mean, want[p].mean);
    EXPECT_EQ(got[p].per_chip, want[p].per_chip);
  }
}

TEST_F(ShardTest, PruneRemovesCorruptAndTempDroppingsOnly) {
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.7;
  rows[0].cell6 = {0.01, 0.0, 0.0};
  const mc::FailureTable table{std::move(rows)};
  FailureTableCache cache{dir_};
  table.save_csv(cache.csv_path(0xfeed), 0xfeed);
  table.save_csv(cache.shard_csv_path(0xfeed, 0, 2), 0xbeef);

  const auto write = [&](const std::string& name, const std::string& body) {
    std::ofstream out{dir_ + "/" + name};
    out << body;
  };
  write("failure_table_corrupt.csv", "not a table\n");
  write("failure_table_0000.csv.tmp.1234.0", "half a row");
  write("failure_table_1111.csv.tmp.99.0", "being written right now");
  write("unrelated.txt", "kept");
  // Age the first temp file past the staleness threshold; the second stays
  // fresh, standing in for another process's save_csv in flight.
  std::filesystem::last_write_time(
      dir_ + "/failure_table_0000.csv.tmp.1234.0",
      std::filesystem::file_time_type::clock::now() - std::chrono::hours{2});

  // Dry run reports without deleting.
  const PruneResult dry = prune_cache_dir(dir_, /*dry_run=*/true);
  EXPECT_EQ(dry.removed.size(), 2u);
  EXPECT_GT(dry.bytes_freed, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/failure_table_corrupt.csv"));

  const PruneResult wet = prune_cache_dir(dir_);
  EXPECT_EQ(wet.removed, dry.removed);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/failure_table_corrupt.csv"));
  EXPECT_FALSE(
      std::filesystem::exists(dir_ + "/failure_table_0000.csv.tmp.1234.0"));
  // Valid artifacts -- merged and per-shard -- foreign files, and fresh
  // temp files (a possibly-live writer) survive.
  EXPECT_TRUE(std::filesystem::exists(cache.csv_path(0xfeed)));
  EXPECT_TRUE(std::filesystem::exists(cache.shard_csv_path(0xfeed, 0, 2)));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/unrelated.txt"));
  EXPECT_TRUE(
      std::filesystem::exists(dir_ + "/failure_table_1111.csv.tmp.99.0"));

  EXPECT_TRUE(prune_cache_dir(dir_).removed.empty());  // idempotent
  EXPECT_TRUE(prune_cache_dir("/nonexistent/dir").removed.empty());
}

TEST_F(ShardTest, ListCachedTablesReportsMtime) {
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.7;
  const mc::FailureTable table{std::move(rows)};
  FailureTableCache cache{dir_};
  table.save_csv(cache.csv_path(0xabc), 0xabc);

  const std::vector<CachedTableInfo> infos = list_cached_tables(dir_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_NE(infos[0].mtime, std::filesystem::file_time_type{});
  // Freshly written: within the last hour on any sane clock.
  const auto age =
      std::filesystem::file_time_type::clock::now() - infos[0].mtime;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(age).count(),
            3600);
}

TEST_F(ShardTest, CachePutAndLookup) {
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.7;
  rows[0].cell6 = {0.03, 0.0, 0.0};
  mc::FailureTable table{std::move(rows)};

  FailureTableCache cache{dir_};
  EXPECT_EQ(cache.lookup(0x99), nullptr);
  const mc::FailureTable& stored = cache.put(0x99, std::move(table));
  EXPECT_EQ(cache.lookup(0x99), &stored);
  EXPECT_TRUE(cache.in_memory(0x99));
  // put persisted the CSV under the fingerprint.
  EXPECT_TRUE(mc::FailureTable::load_csv(cache.csv_path(0x99), 0x99)
                  .has_value());
  EXPECT_EQ(cache.stats().memory_hits, 1u);  // the successful lookup
}

}  // namespace
}  // namespace hynapse::engine
