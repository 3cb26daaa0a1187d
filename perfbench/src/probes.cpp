// Layer probes of the traced run: each times a library layer's public
// functions directly, under a "probe" root span, and fills the per-layer
// metrics the workload's own loop did not measure. Probes never run in the
// untraced run.
#include <chrono>
#include <cstdio>
#include <random>
#include <string>

#include "ann/backends/backend.hpp"
#include "ann/workspace.hpp"
#include "engine/experiment_runner.hpp"
#include "peak.hpp"
#include "pipeline.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median seconds per call of fn over at least `reps` calls and `min_s`.
template <typename Fn>
double per_call_s(std::size_t reps, double min_s, Fn&& fn) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < reps || seconds_since(start) < min_s) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

void probe_circuit(const CircuitStack& stack, Tracer& tracer,
                   std::int64_t root, std::map<std::string, double>& layer) {
  const Scope span{&tracer, "circuit.limit_state", root};
  constexpr std::size_t kVars = 2000;
  constexpr double kVdd = 0.75;
  util::Rng rng{7};
  std::vector<circuit::Variation6T> v6;
  std::vector<circuit::Variation8T> v8;
  for (std::size_t i = 0; i < kVars; ++i) {
    v6.push_back(stack.sampler.sample_6t(rng));
    v8.push_back(stack.sampler.sample_8t(rng));
  }
  double sink = 0.0;
  const auto rate = [&](auto&& metric, const auto& vars) {
    const double s = per_call_s(3, 0.05, [&] {
      for (const auto& v : vars) sink += metric(v);
    });
    return static_cast<double>(vars.size()) / s;
  };
  const mc::FailureCriteria& c = stack.criteria;
  layer["circuit.evals_per_s.6t_read_access"] =
      rate([&](const auto& v) { return c.read_access_metric_6t(v, kVdd); }, v6);
  layer["circuit.evals_per_s.6t_write"] =
      rate([&](const auto& v) { return c.write_metric_6t(v, kVdd); }, v6);
  layer["circuit.evals_per_s.6t_read_disturb"] =
      rate([&](const auto& v) { return c.read_disturb_metric_6t(v, kVdd); }, v6);
  layer["circuit.evals_per_s.8t_read_access"] =
      rate([&](const auto& v) { return c.read_access_metric_8t(v, kVdd); }, v8);
  layer["circuit.evals_per_s.8t_write"] =
      rate([&](const auto& v) { return c.write_metric_8t(v, kVdd); }, v8);
  if (sink != sink) std::fprintf(stderr, "circuit probe produced NaN\n");
}

mc::FailureTable probe_mc(const CircuitStack& stack, std::uint64_t seed,
                          Tracer& tracer, std::int64_t root,
                          std::map<std::string, double>& layer) {
  const mc::FailureAnalyzer capped{stack.criteria, stack.sampler,
                                   serve_budget(kThreadCap)};
  const mc::FailureAnalyzer serial{stack.criteria, stack.sampler,
                                   serve_budget(1)};
  constexpr std::size_t kPlain = 16000;
  constexpr std::size_t kIs = 4000;
  {
    const Scope span{&tracer, "mc.plain", root};
    const double capped_s = per_call_s(3, 0.0, [&] {
      (void)capped.plain_mc_6t(mc::Mechanism::read_access, 0.75, kPlain, seed);
    });
    const double serial_s = per_call_s(3, 0.0, [&] {
      (void)serial.plain_mc_6t(mc::Mechanism::read_access, 0.75, kPlain, seed);
    });
    layer["mc.plain_samples_per_s"] = kPlain / capped_s;
    layer["mc.thread_efficiency"] =
        (kPlain / capped_s) / (static_cast<double>(kThreadCap) * kPlain / serial_s);
  }
  {
    const Scope span{&tracer, "mc.importance", root};
    const double s = per_call_s(3, 0.0, [&] {
      (void)capped.importance_6t(mc::Mechanism::read_access, 0.90, kIs, seed);
    });
    layer["mc.is_samples_per_s"] = kIs / s;
  }
  {
    // Exact counts over one 35-op cycle of the table_build rotation (the
    // estimates are thread-count invariant, so they equal that loop's); a
    // change to the estimator moves them.
    const Scope span{&tracer, "mc.estimate", root};
    const std::size_t cycle = kGridPoints * kCellMechanisms;
    double samples = 0.0;
    double fallbacks = 0.0;
    for (std::size_t i = 0; i < cycle; ++i) {
      const mc::RateEstimate r = run_estimate(capped, estimate_op(seed, i));
      samples += static_cast<double>(r.total_samples);
      fallbacks += r.importance_sampled ? 1.0 : 0.0;
    }
    layer["mc.samples_per_estimate"] = samples / static_cast<double>(cycle);
    layer["mc.is_fallback_frac"] = fallbacks / static_cast<double>(cycle);
  }
  const Scope span{&tracer, "mc.table_build", root};
  const Clock::time_point t0 = Clock::now();
  mc::FailureTable table = mc::FailureTable::build(
      capped, circuit::paper_voltage_grid(), kSetupTableSeed);
  layer["mc.table_build_s"] = seconds_since(t0);
  return table;
}

void probe_ann(const ann::Mlp& net, const data::Dataset& slice, Tracer& tracer,
               std::int64_t root, std::map<std::string, double>& layer) {
  const Scope span{&tracer, "ann.kernels", root};
  constexpr std::size_t kRows = 256;
  const std::size_t shapes[3][2] = {{784, 1000}, {1000, 500}, {500, 200}};
  std::mt19937 gen{11};
  std::uniform_real_distribution<float> dist{-1.0f, 1.0f};
  for (const auto backend :
       {ann::backends::Backend::reference, ann::backends::Backend::simd}) {
    const ann::backends::KernelOps& ops = ann::backends::kernel_ops(backend);
    for (std::size_t l = 0; l < 3; ++l) {
      const std::size_t k = shapes[l][0];
      const std::size_t n = shapes[l][1];
      std::vector<float> a(kRows * k), b(k * n), c(kRows * n);
      for (float& x : a) x = dist(gen);
      for (float& x : b) x = dist(gen);
      const double s = per_call_s(3, 0.05, [&] {
        ops.gemm(a.data(), b.data(), c.data(), kRows, k, n);
      });
      layer["ann.gemm_gflops." +
            std::string{ann::backends::backend_name(backend)} + ".l" +
            std::to_string(l + 1)] =
          1e-9 * 2.0 * static_cast<double>(kRows * k * n) / s;
    }
  }
  const PeakResult peak = measured_peak_gflops();
  std::printf("peak probe: %s multiply+add, %.1f GFLOP/s on one core\n", peak.isa,
              peak.gflops);
  layer["ann.peak_gflops"] = peak.gflops;
  layer["ann.gemm_peak_frac.simd.l1"] = layer["ann.gemm_gflops.simd.l1"] / peak.gflops;
  ann::EvalWorkspace ws;
  ws.set_backend(ann::backends::default_backend());
  const double s = per_call_s(5, 0.05, [&] {
    (void)net.accuracy(slice.images, slice.labels, ws);
  });
  layer["ann.forward_us_per_image"] = 1e6 * s / static_cast<double>(slice.size());
  if (peak.sink != peak.sink) std::fprintf(stderr, "peak probe produced NaN\n");
}

void probe_core(const core::QuantizedNetwork& qnet, const data::Dataset& slice,
                const mc::FailureTable& table, Tracer& tracer,
                std::int64_t root, std::map<std::string, double>& layer) {
  const Scope span{&tracer, "core.fault_apply", root};
  ChipAnatomy anatomy{qnet, slice};
  const core::MemoryConfig config = core::MemoryConfig::all_6t(qnet.bank_words());
  for (const char* vdd : {"0.65", "0.80", "0.95"}) {
    const core::FaultModel model{table, std::stod(vdd)};
    std::vector<double> ms;
    double deltas = 0.0;
    constexpr std::size_t kChips = 9;
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      ms.push_back(anatomy.fault_apply_ms(config, model, 2024, chip));
      deltas += static_cast<double>(anatomy.last_deltas());
    }
    layer[std::string{"core.fault_apply_ms_per_chip."} + vdd] = median(ms);
    layer[std::string{"core.deltas_per_chip."} + vdd] = deltas / kChips;
  }
}

void probe_engine(const core::QuantizedNetwork& qnet,
                  const data::Dataset& slice, const mc::FailureTable& table,
                  Tracer& tracer, std::int64_t root,
                  std::map<std::string, double>& layer) {
  const Scope span{&tracer, "engine.run", root};
  const engine::ExperimentRunner runner{kThreadCap};
  const std::vector<std::size_t> words = qnet.bank_words();
  std::vector<engine::SweepPoint> points;
  for (int n = 0; n < static_cast<int>(kSweepConfigs); ++n) {
    const core::MemoryConfig cfg = n == 0 ? core::MemoryConfig::all_6t(words)
                                          : core::MemoryConfig::uniform_hybrid(words, n);
    points.push_back({cfg, 0.65});
    points.push_back({cfg, 0.85});
  }
  constexpr std::size_t kChips = 4;
  const auto chips_per_s = [&](std::size_t fuse) {
    core::EvalOptions opts;
    opts.chips = kChips;
    opts.threads = kThreadCap;
    opts.fuse_chips = fuse;
    const double s = per_call_s(3, 0.0, [&] {
      (void)runner.run(qnet, engine::EvalJob::sweep(points, opts).against(table),
                       slice);
    });
    return static_cast<double>(points.size() * kChips) / s;
  };
  const double fused = chips_per_s(0);
  layer["engine.chips_per_s"] = fused;
  layer["engine.fuse_gain"] = fused / chips_per_s(1);
}

void probe_codec(const data::Dataset& slice, Tracer& tracer, std::int64_t root,
                 std::map<std::string, double>& layer) {
  const Scope span{&tracer, "serve.codec", root};
  serve::Request req;
  req.configs = {*serve::ConfigSpec::parse("hybrid2")};
  req.vdds = {0.75};
  req.chips = kServeChips;
  req.table_seed = 12345;
  req.tag = "17";
  serve::Response resp;
  resp.id = 17;
  resp.status = serve::RequestStatus::done;
  resp.tag = "17";
  resp.results.push_back(serve::PointResult{
      "hybrid2", 0.75, core::AccuracyResult{0.9375, 0.0125, {0.925, 0.95}}});
  resp.stats.queue_ms = 1.25;
  resp.stats.run_ms = 3.5;
  resp.stats.wall_ms = 4.75;
  const std::string req_line = serve::format_request(req);
  const std::string resp_line = serve::format_response(resp, true);
  std::size_t sink = slice.size();
  constexpr std::size_t kCalls = 2000;
  const auto us = [&](auto&& fn) {
    return 1e6 * per_call_s(5, 0.0, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) fn();
    }) / kCalls;
  };
  layer["serve.codec_us.format_request"] =
      us([&] { sink += serve::format_request(req).size(); });
  layer["serve.codec_us.parse_request"] = us([&] {
    sink += serve::parse_request(req_line, static_cast<std::string*>(nullptr))
                ->vdds.size();
  });
  layer["serve.codec_us.format_response"] =
      us([&] { sink += serve::format_response(resp, true).size(); });
  layer["serve.codec_us.parse_response"] =
      us([&] { sink += serve::parse_response(resp_line, nullptr)->results.size(); });
  if (sink == 0) std::fprintf(stderr, "codec probe lost its output\n");
}

}  // namespace

void run_probes(std::uint64_t seed, Tracer& tracer,
                std::map<std::string, double>& layer) {
  const Scope root{&tracer, "probe"};
  const CircuitStack stack;
  probe_circuit(stack, tracer, root.id(), layer);
  const mc::FailureTable table = probe_mc(stack, seed, tracer, root.id(), layer);

  // An untrained Table-I net: GEMM, quantization and fault-application cost
  // do not depend on the weights' values.
  const ann::Mlp net{core::table1_layer_sizes(), 1, ann::Activation::tanh_lecun};
  std::unique_ptr<core::QuantizedNetwork> qnet;
  {
    const Scope span{&tracer, "quant.quantize", root.id()};
    layer["quant.quantize_ms"] = 1e3 * per_call_s(3, 0.0, [&] {
      qnet = std::make_unique<core::QuantizedNetwork>(net);
    });
  }
  const data::Dataset slice = test_slice(table1_test_set(), seed, 256);
  probe_ann(net, slice, tracer, root.id(), layer);
  probe_core(*qnet, slice, table, tracer, root.id(), layer);
  probe_engine(*qnet, slice, table, tracer, root.id(), layer);
  probe_codec(slice, tracer, root.id(), layer);
  if (!layer.contains("serve.queue_ms.p50")) {
    const Scope span{&tracer, "serve.session", root.id()};
    serve_probe(seed, 2.0, layer);
  }
}

}  // namespace perfbench
