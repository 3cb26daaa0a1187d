// table_build: one op is one FailureAnalyzer::estimate_6t/estimate_8t call
// at the serve budget -- the job FailureTable::build schedules -- cycling
// through the 7 grid voltages x 5 cell-mechanisms with fresh seeds, so every
// 35-op cycle has the grid's own mix of plain-MC and IS-fallback estimates.
// circuit (limit-state solves) and mc (sampling) do nearly all the work.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "pipeline.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCycle = kGridPoints * kCellMechanisms;

bool is_8t(CellMechanism cm) {
  return cm == CellMechanism::read_access_8t || cm == CellMechanism::write_8t;
}

mc::Mechanism mechanism(CellMechanism cm) {
  switch (cm) {
    case CellMechanism::read_access_6t:
    case CellMechanism::read_access_8t:
      return mc::Mechanism::read_access;
    case CellMechanism::write_6t:
    case CellMechanism::write_8t:
      return mc::Mechanism::write;
    case CellMechanism::read_disturb_6t:
      break;
  }
  return mc::Mechanism::read_disturb;
}

bool same_estimate(const mc::RateEstimate& a, const mc::RateEstimate& b) {
  const auto bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return bits(a.p, b.p) && bits(a.ci_lo, b.ci_lo) && bits(a.ci_hi, b.ci_hi) &&
         bits(a.hits, b.hits) && a.trials == b.trials &&
         a.total_samples == b.total_samples &&
         a.importance_sampled == b.importance_sampled;
}

bool same_rows(const mc::FailureTable& a, const mc::FailureTable& b) {
  if (a.rows().size() != b.rows().size()) return false;
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    const mc::FailureTableRow& x = a.rows()[i];
    const mc::FailureTableRow& y = b.rows()[i];
    const double xs[] = {x.vdd, x.cell6.read_access, x.cell6.write_fail,
                         x.cell6.read_disturb, x.cell8.read_access,
                         x.cell8.write_fail, x.cell8.read_disturb, x.samples,
                         x.ci_half_width};
    const double ys[] = {y.vdd, y.cell6.read_access, y.cell6.write_fail,
                         y.cell6.read_disturb, y.cell8.read_access,
                         y.cell8.write_fail, y.cell8.read_disturb, y.samples,
                         y.ci_half_width};
    if (std::memcmp(xs, ys, sizeof(xs)) != 0) return false;
  }
  return true;
}

/// Single-threaded replay of an op's plain-MC phase, split into the
/// variation sampling (mc) and the limit-state solves (circuit); when the
/// op fell back to importance sampling, the IS phase follows as one span.
void replay_estimate(const CircuitStack& stack,
                     const mc::FailureAnalyzer& analyzer, const EstimateOp& op,
                     bool importance_sampled, Tracer& tracer,
                     std::int64_t parent, std::uint64_t request) {
  const double vdd = grid_vdd(op.vdd_index);
  const mc::Mechanism m = mechanism(op.cell_mechanism);
  const std::size_t n = analyzer.options().mc_samples;
  util::Rng rng{op.mc_seed};
  double sink = 0.0;
  if (is_8t(op.cell_mechanism)) {
    std::vector<circuit::Variation8T> vars;
    vars.reserve(n);
    {
      const Scope s{&tracer, "mc.sample", parent, request};
      for (std::size_t i = 0; i < n; ++i) vars.push_back(stack.sampler.sample_8t(rng));
    }
    const Scope s{&tracer, "circuit.limit_state", parent, request};
    for (const auto& v : vars) sink += stack.criteria.metric_8t(m, v, vdd) > 0.0;
  } else {
    std::vector<circuit::Variation6T> vars;
    vars.reserve(n);
    {
      const Scope s{&tracer, "mc.sample", parent, request};
      for (std::size_t i = 0; i < n; ++i) vars.push_back(stack.sampler.sample_6t(rng));
    }
    const Scope s{&tracer, "circuit.limit_state", parent, request};
    for (const auto& v : vars) sink += stack.criteria.metric_6t(m, v, vdd) > 0.0;
  }
  if (importance_sampled) {
    const Scope s{&tracer, "mc.importance", parent, request};
    const std::size_t is_n = analyzer.options().is_samples;
    sink += is_8t(op.cell_mechanism)
                ? analyzer.importance_8t(m, vdd, is_n, op.is_seed).p
                : analyzer.importance_6t(m, vdd, is_n, op.is_seed).p;
  }
  if (!std::isfinite(sink)) throw std::runtime_error{"replay produced NaN"};
}

struct Fixture {
  CircuitStack stack;
  mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                               serve_budget(kThreadCap)};
  mc::FailureTable reference;
};

}  // namespace

mc::RateEstimate run_estimate(const mc::FailureAnalyzer& analyzer,
                              const EstimateOp& op) {
  const double vdd = grid_vdd(op.vdd_index);
  const mc::Mechanism m = mechanism(op.cell_mechanism);
  return is_8t(op.cell_mechanism)
             ? analyzer.estimate_8t(m, vdd, op.mc_seed, op.is_seed)
             : analyzer.estimate_6t(m, vdd, op.mc_seed, op.is_seed);
}

WorkloadResult run_table_build(const RunSpec& spec, Tracer* tracer) {
  WorkloadResult res;
  const std::vector<double> grid = circuit::paper_voltage_grid();
  // Set-up: the circuit stack, the analyzer and one full paper-grid table
  // (the reference the shard check compares against; it also spins up the
  // pool and every lazy cache before timing).
  const std::unique_ptr<Fixture> fx =
      timed_setups(spec.setups, res.setup_s, [&] {
        auto f = std::make_unique<Fixture>();
        f->reference = mc::FailureTable::build(f->analyzer, grid,
                                               kSetupTableSeed);
        return f;
      });

  std::vector<mc::RateEstimate> first_cycle(kCycle);
  std::size_t above_one = 0;
  RssMark rss{1000};
  const Op op = [&](std::size_t i, Tracer* t, std::int64_t span) {
    const EstimateOp e = estimate_op(spec.seed, i);
    mc::RateEstimate r;
    {
      const Scope s{t, "mc.estimate", span, i + 1};
      r = run_estimate(fx->analyzer, e);
    }
    if (!std::isfinite(r.p) || r.p < 0.0 || r.total_samples == 0) {
      throw std::runtime_error{"invalid estimate"};
    }
    // The fixed-path 6T-write importance sampler now and then returns a
    // rate above 1 (seed 601: p = 3.9 at 0.65 V). That is the estimator's
    // known defect, not a failed call, and no check pins a rate: the op
    // counts as done and the run reports how often it happened.
    if (r.p > 1.0) ++above_one;
    if (i < kCycle) first_cycle[i] = r;
    rss.op_done();
    return 1.0;
  };
  res.outcome = measure(spec, tracer, res.layer, [&](double s, Tracer* t) {
    return closed_loop(s, t, "bench.op", op);
  });
  res.peak_rss_mb = rss.mb();
  std::printf("estimates with a rate above 1: %zu of %zu\n", above_one,
              res.outcome.attempted);

  // Checks (untimed). Re-run sampled ops single-threaded: bit-identical.
  const mc::FailureAnalyzer serial{fx->stack.criteria, fx->stack.sampler,
                                   serve_budget(1)};
  const std::size_t seen = std::min(res.outcome.attempted, kCycle);
  std::vector<std::size_t> sampled;
  for (std::size_t i = 0; i < seen; i += 8) sampled.push_back(i);
  for (std::size_t i = 0; i < seen; ++i) {
    if (first_cycle[i].importance_sampled) {
      sampled.push_back(i);  // one IS-fallback op as well
      break;
    }
  }
  for (const std::size_t i : sampled) {
    res.checks.require(
        same_estimate(first_cycle[i], run_estimate(serial, estimate_op(spec.seed, i))),
        "table_build op " + std::to_string(i) + " differs at 1 thread");
  }
  std::vector<mc::FailureTable> shards;
  for (std::size_t k = 0; k < 3; ++k) {
    shards.push_back(mc::FailureTable::build_shard(fx->analyzer, grid,
                                                   kSetupTableSeed, k, 3));
  }
  res.checks.require(same_rows(mc::FailureTable::merge(shards), fx->reference),
                     "merged build_shard rows differ from FailureTable::build");

  if (tracer != nullptr) {
    for (std::size_t i = 0; i < seen; ++i) {
      const Scope root{tracer, "anatomy", -1, i + 1};
      replay_estimate(fx->stack, fx->analyzer, estimate_op(spec.seed, i),
                      first_cycle[i].importance_sampled, *tracer, root.id(),
                      i + 1);
    }
  }
  return res;
}

}  // namespace perfbench
