// paper_sweep: one op is one ExperimentRunner::run of one (config, vdd)
// point x 2 chips on a fixed 256-image slice, cycling through all6t and
// uniform hybrid 1-4 MSBs across the 7 grid voltages. The ann GEMMs
// dominate; quant/core fault application comes second.
#include <optional>
#include <stdexcept>
#include <string>

#include "ann/serialize.hpp"
#include "engine/experiment_runner.hpp"
#include "engine/table_cache.hpp"
#include "pipeline.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSlice = 256;
constexpr std::size_t kChips = 2;
constexpr std::size_t kCycle = kSweepConfigs * kGridPoints;

struct Fixture {
  CircuitStack stack;
  std::unique_ptr<core::QuantizedNetwork> qnet;
  mc::FailureTable table;
  data::Dataset slice;
  std::vector<core::MemoryConfig> configs;
  engine::ExperimentRunner runner{kThreadCap};
};

core::EvalOptions point_options(std::uint64_t seed, const SweepOp& op) {
  core::EvalOptions opts;
  opts.chips = kChips;
  opts.seed = derive_seed(seed, 100 + op.slot);
  opts.threads = kThreadCap;
  return opts;
}

}  // namespace

WorkloadResult run_paper_sweep(const RunSpec& spec, Tracer* tracer) {
  WorkloadResult res;
  const std::vector<double> grid = circuit::paper_voltage_grid();
  const data::Dataset test = table1_test_set();
  // The Table-I net is trained once per run into the run's own cache dir,
  // the way the figure benches cache their shared model. Set-up then loads
  // it, quantizes it, builds one paper-grid table at the serve budget and
  // runs one warm-up op (runner contexts, workspaces).
  const std::string model_path = engine::default_cache_dir() + "/table1_model.bin";
  ann::save_mlp(train_table1(), model_path);
  const std::unique_ptr<Fixture> fx =
      timed_setups(spec.setups, res.setup_s, [&] {
        auto f = std::make_unique<Fixture>();
        const std::optional<ann::Mlp> net = ann::load_mlp(model_path);
        if (!net) throw std::runtime_error{"cannot load " + model_path};
        f->qnet = std::make_unique<core::QuantizedNetwork>(*net);
        const mc::FailureAnalyzer analyzer{f->stack.criteria, f->stack.sampler,
                                           serve_budget(kThreadCap)};
        f->table = mc::FailureTable::build(analyzer, grid, kSetupTableSeed);
        f->slice = test_slice(test, spec.seed, kSlice);
        const std::vector<std::size_t> words = f->qnet->bank_words();
        f->configs.push_back(core::MemoryConfig::all_6t(words));
        for (int n = 1; n < static_cast<int>(kSweepConfigs); ++n) {
          f->configs.push_back(core::MemoryConfig::uniform_hybrid(words, n));
        }
        (void)f->runner.evaluate(*f->qnet, f->configs[0], f->table, grid[0],
                                 f->slice, point_options(spec.seed, sweep_op(0)));
        return f;
      });

  std::vector<core::AccuracyResult> first(kCycle);
  RssMark rss{1000};
  const Op op = [&](std::size_t i, Tracer* t, std::int64_t span) {
    const SweepOp s = sweep_op(i);
    const engine::SweepPoint point{fx->configs[static_cast<std::size_t>(s.n_msb)],
                                   grid[s.vdd_index]};
    std::vector<core::AccuracyResult> out;
    {
      const Scope scope{t, "engine.run", span, i + 1};
      out = fx->runner.run(*fx->qnet,
                           engine::EvalJob::sweep({&point, 1},
                                                  point_options(spec.seed, s))
                               .against(fx->table),
                           fx->slice);
    }
    if (out.size() != 1 || out[0].per_chip.size() != kChips) {
      throw std::runtime_error{"wrong result shape"};
    }
    // A point's answer never changes between cycles.
    core::AccuracyResult& seen = first[s.slot];
    if (seen.per_chip.empty()) {
      seen = out[0];
    } else if (!same_accuracy(out[0], seen)) {
      throw std::runtime_error{"answer changed between cycles"};
    }
    rss.op_done();
    return static_cast<double>(kChips);
  };
  res.outcome = measure(spec, tracer, res.layer, [&](double s, Tracer* t) {
    return closed_loop(s, t, "bench.op", op);
  });
  res.peak_rss_mb = rss.mb();

  // Checks (untimed): sampled points equal the legacy full-rebuild path.
  const std::size_t seen = std::min(res.outcome.attempted, kCycle);
  for (std::size_t i = 0; i < seen; i += 6) {
    const SweepOp s = sweep_op(i);
    core::EvalOptions legacy = point_options(spec.seed, s);
    legacy.path = core::EvalPath::legacy;
    res.checks.require(
        same_accuracy(first[i], fx->runner.evaluate(
                                    *fx->qnet,
                                    fx->configs[static_cast<std::size_t>(s.n_msb)],
                                    fx->table, grid[s.vdd_index], fx->slice,
                                    legacy)),
        "paper_sweep point " + std::to_string(i) + " differs from EvalPath::legacy");
  }

  if (tracer != nullptr) {
    ChipAnatomy anatomy{*fx->qnet, fx->slice};
    const double clean = anatomy.baseline_accuracy();
    for (std::size_t i = 0; i < kCycle; ++i) {
      const SweepOp s = sweep_op(i);
      const Scope root{tracer, "anatomy", -1, i + 1};
      const core::FaultModel model{fx->table, grid[s.vdd_index]};
      const double replayed = anatomy.replay(
          *tracer, root.id(), i + 1, fx->configs[static_cast<std::size_t>(s.n_msb)],
          model, point_options(spec.seed, s).seed, kChips);
      res.checks.require(replayed == clean,
                         "anatomy forward replay differs from Mlp::accuracy");
    }
  }
  return res;
}

}  // namespace perfbench
