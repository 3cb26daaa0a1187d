// Tests of the benchmark's own logic: the seed-driven generators and
// rotations, the percentile rank and the span self-time arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "circuit/reference.hpp"
#include "plan.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Generator, DeterministicInTheSeed) {
  for (std::size_t k = 0; k < 200; ++k) {
    const ServeOp a = serve_op(1, k);
    const ServeOp b = serve_op(1, k);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.configs, b.configs);
    EXPECT_EQ(a.vdds, b.vdds);
    EXPECT_EQ(a.table_seed, b.table_seed);
    EXPECT_EQ(estimate_op(42, k).mc_seed, estimate_op(42, k).mc_seed);
    EXPECT_EQ(estimate_op(42, k).is_seed, estimate_op(42, k).is_seed);
  }
  // Another seed gives other inputs.
  EXPECT_NE(serve_eval_seed(42), serve_eval_seed(43));
  EXPECT_LE(serve_eval_seed(42), std::uint64_t{1} << 53);
  EXPECT_NE(estimate_op(42, 0).mc_seed, estimate_op(43, 0).mc_seed);
  // Set-up inputs do not follow the seed.
  EXPECT_EQ(warm_table_seed(0), kSetupTableSeed);
}

TEST(Grid, MatchesThePaperGrid) {
  const std::vector<double> paper = hynapse::circuit::paper_voltage_grid();
  ASSERT_EQ(paper.size(), kGridPoints);
  for (std::size_t i = 0; i < kGridPoints; ++i) EXPECT_EQ(grid_vdd(i), paper[i]);
}

TEST(Rotation, TableBuildCyclesTheGridWithFreshSeeds) {
  std::set<std::pair<std::size_t, int>> seen;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 70; ++i) {
    const EstimateOp op = estimate_op(7, i);
    EXPECT_EQ(op.vdd_index, (i % 35) / 5);
    EXPECT_EQ(static_cast<std::size_t>(op.cell_mechanism), i % 5);
    seen.insert({op.vdd_index, static_cast<int>(op.cell_mechanism)});
    seeds.insert(op.mc_seed);
    seeds.insert(op.is_seed);
  }
  EXPECT_EQ(seen.size(), 35u);
  EXPECT_EQ(seeds.size(), 140u);  // every op draws fresh seeds
}

TEST(Rotation, PaperSweepVisitsEveryPointOncePerCycle) {
  std::set<std::pair<int, std::size_t>> seen;
  for (std::size_t i = 0; i < 35; ++i) {
    const SweepOp op = sweep_op(i);
    EXPECT_EQ(op.slot, i);
    EXPECT_EQ(sweep_op(i + 35).slot, i);
    seen.insert({op.n_msb, op.vdd_index});
  }
  EXPECT_EQ(seen.size(), 35u);
}

TEST(Rotation, ServeSharesAreExact) {
  for (std::size_t conn = 0; conn < 2; ++conn) {
    std::size_t cold = 0;
    std::size_t sweep = 0;
    std::set<std::uint64_t> cold_seeds;
    std::set<std::uint64_t> warm_seeds;
    for (std::size_t w = 0; w < kWarmTables; ++w) {
      warm_seeds.insert(warm_table_seed(w));
    }
    for (std::size_t k = 0; k < 1600; ++k) {
      const ServeOp op = serve_op(conn, k);
      // Seeds travel as JSON numbers: they must be exact doubles.
      EXPECT_LE(op.table_seed, std::uint64_t{1} << 53);
      EXPECT_NE(op.table_seed, 0u);  // 0 would mean "service default"
      switch (op.kind) {
        case ServeKind::cold:
          ++cold;
          EXPECT_EQ(k % kColdEvery, kColdEvery - 1);
          EXPECT_EQ(op.mc_samples, kColdSamples);
          EXPECT_EQ(warm_seeds.count(op.table_seed), 0u);
          cold_seeds.insert(op.table_seed);
          break;
        case ServeKind::sweep:
          ++sweep;
          EXPECT_EQ(k % kSweepEvery, kSweepEvery - 1);
          EXPECT_EQ(op.configs.size(), 2u);
          EXPECT_EQ(op.vdds.size(), 2u);
          EXPECT_EQ(warm_seeds.count(op.table_seed), 1u);
          break;
        case ServeKind::evaluate:
          EXPECT_EQ(op.configs.size(), 1u);
          EXPECT_EQ(warm_seeds.count(op.table_seed), 1u);
          EXPECT_EQ(op.mc_samples, 0u);
          break;
      }
    }
    EXPECT_EQ(cold, 1600 / kColdEvery);
    EXPECT_EQ(cold_seeds.size(), cold);  // never-seen: all distinct
    // Every 10th request is a sweep unless it is also a cold one (1 in 80).
    EXPECT_EQ(sweep, 1600 / kSweepEvery - 1600 / 80);
  }
  // Cold seeds never repeat across connections either.
  EXPECT_NE(serve_op(0, 15).table_seed, serve_op(1, 15).table_seed);
}

TEST(Rotation, WarmRequestsCoverEveryPointOfEveryWarmTable) {
  std::set<std::tuple<std::string, double, std::uint64_t>> seen;
  for (std::size_t k = 0; k < 28 * kWarmTables; ++k) {
    const ServeOp op = serve_op(0, k);
    if (op.kind != ServeKind::evaluate) continue;
    seen.insert({op.configs[0], op.vdds[0], op.table_seed});
  }
  // 112 requests minus the sweep and cold slots among them.
  std::size_t expected = 0;
  for (std::size_t k = 0; k < 28 * kWarmTables; ++k) {
    expected += serve_op(0, k).kind == ServeKind::evaluate ? 1 : 0;
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(Percentile, LeavesTenSamplesBeyondP99AtOneThousand) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.p50, 500.0);
  for (std::size_t n = 1000; n < 3000; n += 37) {
    EXPECT_GE(n - 1 - percentile_index(n, 0.99), 10u) << n;
  }
  EXPECT_EQ(percentile_index(1, 0.99), 0u);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end,
                std::int64_t parent) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const std::vector<SpanRecord> spans = {
      span("anatomy", 0, 100, -1),
      span("core.fault_apply", 10, 30, 0),
      span("ann.forward", 40, 90, 0),
      span("ann.gemm", 45, 60, 2),
      span("ann.gemm", 55, 70, 2),   // overlaps its sibling
      span("ann.gemm", 85, 120, 2),  // sticks out of the parent
      span("probe", 200, 260, -1),
      span("mc.plain", 210, 250, 6),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 25 - 5);
  EXPECT_EQ(self[3], 15);
  EXPECT_EQ(self[5], 35);
  const std::map<std::string, double> anatomy = layer_self_seconds(spans, "anatomy");
  EXPECT_DOUBLE_EQ(anatomy.at("anatomy"), 30e-9);
  EXPECT_DOUBLE_EQ(anatomy.at("core"), 20e-9);
  EXPECT_DOUBLE_EQ(anatomy.at("ann"), (20 + 15 + 15 + 35) * 1e-9);
  EXPECT_EQ(anatomy.count("mc"), 0u);  // under "probe", not "anatomy"
  const std::map<std::string, double> names = span_self_seconds(spans, "anatomy");
  EXPECT_DOUBLE_EQ(names.at("ann.gemm"), (15 + 15 + 35) * 1e-9);
  EXPECT_DOUBLE_EQ(names.at("ann.forward"), 20e-9);
  EXPECT_EQ(layer_of("serve.parse_response"), "serve");
}

TEST(Tracer, RecordsParentsAndRequests) {
  Tracer tracer;
  {
    const Scope root{&tracer, "anatomy", -1, 7};
    const Scope child{&tracer, "ann.gemm", root.id(), 7};
  }
  const Scope untraced{nullptr, "ignored"};
  EXPECT_EQ(untraced.id(), -1);
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

}  // namespace
}  // namespace perfbench
