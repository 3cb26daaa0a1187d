#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "ann/matrix.hpp"
#include "ann/trainer.hpp"
#include "ann/workspace.hpp"
#include "core/experiments.hpp"
#include "data/digits.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

CircuitStack::CircuitStack()
    : tech{circuit::ptm22()},
      sizing6{circuit::reference_sizing_6t(tech)},
      sizing8{circuit::reference_sizing_8t(tech)},
      array{tech, sram::SubArrayGeometry{}, sizing6},
      cycle{tech, array, circuit::reference_6t(tech)},
      sampler{tech, sizing6, sizing8},
      criteria{tech, cycle, sizing6, sizing8} {}

mc::AnalyzerOptions serve_budget(std::size_t threads) {
  mc::AnalyzerOptions ao;
  ao.mc_samples = 4000;
  ao.is_samples = 2000;
  ao.threads = threads;
  return ao;
}

ann::Mlp train_table1() {
  ann::Mlp net{core::table1_layer_sizes(), 1, ann::Activation::tanh_lecun};
  const data::Dataset train = data::generate_digits(8000, 42001);
  ann::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 64;
  cfg.learning_rate = 0.05;
  cfg.momentum = 0.9;
  cfg.lr_decay = 0.85;
  ann::train_sgd(net, train.images, train.labels, cfg);
  return net;
}

data::Dataset table1_test_set() { return data::generate_digits(2000, 77001); }

data::Dataset test_slice(const data::Dataset& test, std::uint64_t seed,
                         std::size_t n) {
  if (n > test.size()) throw std::invalid_argument{"test slice too large"};
  const std::size_t offset =
      static_cast<std::size_t>(derive_seed(seed, 500) % (test.size() - n + 1));
  data::Dataset out;
  out.images = ann::Matrix{n, test.images.cols()};
  out.labels.assign(test.labels.begin() + static_cast<std::ptrdiff_t>(offset),
                    test.labels.begin() +
                        static_cast<std::ptrdiff_t>(offset + n));
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.images.row(i), test.images.row(offset + i),
                test.images.cols() * sizeof(float));
  }
  return out;
}

bool same_accuracy(const core::AccuracyResult& a,
                   const core::AccuracyResult& b) {
  return a.per_chip.size() == b.per_chip.size() &&
         std::memcmp(a.per_chip.data(), b.per_chip.data(),
                     a.per_chip.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0;
}

namespace {

/// Pool counters from the obs registry (jobs run, busy seconds, contended
/// lock acquisitions), for deltas around a measured loop.
struct PoolCounters {
  double jobs_run = 0.0;
  double busy_s = 0.0;
  double lock_contended = 0.0;
};

PoolCounters pool_counters() {
  obs::Registry& r = obs::Registry::global();
  return PoolCounters{static_cast<double>(r.counter("pool.jobs_run").value()),
                      1e-6 * static_cast<double>(r.counter("pool.busy_us").value()),
                      static_cast<double>(r.counter("pool.lock_contended").value())};
}

/// Adds `part` to `into`: counts, work and wall time add up, latency
/// samples concatenate.
void add(Outcome& into, const Outcome& part) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.work += part.work;
  into.seconds += part.seconds;
  into.latency_ms.insert(into.latency_ms.end(), part.latency_ms.begin(),
                         part.latency_ms.end());
}

}  // namespace

Outcome closed_loop(double seconds, Tracer* tracer, const std::string& span,
                    const Op& op) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>{seconds});
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      const Scope scope{tracer, span, -1, i + 1};
      out.work += op(i, tracer, scope.id());
      out.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

Outcome measure(const RunSpec& spec, Tracer* tracer,
                std::map<std::string, double>& layer,
                const std::function<Outcome(double, Tracer*)>& loop,
                const std::function<void()>& reset) {
  if (tracer == nullptr) return loop(spec.seconds, nullptr);
  Outcome plain;
  Outcome traced;
  PoolCounters pool;
  bool first = true;
  for (const bool on : {false, true, true, false}) {
    if (!first && reset) reset();
    first = false;
    const PoolCounters before = pool_counters();
    const Outcome part = loop(0.25 * spec.seconds, on ? tracer : nullptr);
    const PoolCounters after = pool_counters();
    if (on) {
      pool.jobs_run += after.jobs_run - before.jobs_run;
      pool.busy_s += after.busy_s - before.busy_s;
      pool.lock_contended += after.lock_contended - before.lock_contended;
    }
    add(on ? traced : plain, part);
  }
  const double workers =
      static_cast<double>(util::ThreadPool::shared().worker_count());
  layer["util.pool.jobs_run"] = pool.jobs_run;
  layer["util.pool.busy_s"] = pool.busy_s;
  layer["util.pool.lock_contended"] = pool.lock_contended;
  layer["util.pool.utilization"] = pool.busy_s / (workers * traced.seconds);
  const double plain_rate = plain.work / plain.seconds;
  const double traced_rate = traced.work / traced.seconds;
  layer["bench.trace_overhead_frac"] = (plain_rate - traced_rate) / plain_rate;
  plain.attempted += traced.attempted;
  plain.failed += traced.failed;
  plain.latency_ms.insert(plain.latency_ms.end(), traced.latency_ms.begin(),
                          traced.latency_ms.end());
  return plain;
}

ChipAnatomy::ChipAnatomy(const core::QuantizedNetwork& qnet,
                         const data::Dataset& test)
    : qnet_{&qnet},
      qnet_fp_{core::network_fingerprint(qnet)},
      baseline_{qnet.dequantize()},
      test_{&test},
      backend_{ann::backends::default_backend()} {
  empty_.images = ann::Matrix{0, test.images.cols()};
}

double ChipAnatomy::baseline_accuracy() const {
  return baseline_.accuracy(test_->images, test_->labels);
}

double ChipAnatomy::fault_apply_ms(const core::MemoryConfig& config,
                                   const core::FaultModel& model,
                                   std::uint64_t eval_seed, std::size_t chip) {
  const auto t0 = std::chrono::steady_clock::now();
  (void)context_.evaluate_chip(*qnet_, qnet_fp_, config, model, empty_,
                               eval_seed, chip, backend_);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double ChipAnatomy::replay(Tracer& tracer, std::int64_t parent,
                           std::uint64_t request,
                           const core::MemoryConfig& config,
                           const core::FaultModel& model,
                           std::uint64_t eval_seed, std::size_t chips) {
  double accuracy = 0.0;
  for (std::size_t chip = 0; chip < chips; ++chip) {
    {
      const Scope scope{&tracer, "core.fault_apply", parent, request};
      (void)context_.evaluate_chip(*qnet_, qnet_fp_, config, model, empty_,
                                   eval_seed, chip, backend_);
    }
    accuracy = forward(tracer, parent, request);
  }
  return accuracy;
}

double ChipAnatomy::forward(Tracer& tracer, std::int64_t parent,
                            std::uint64_t request) {
  const Scope scope{&tracer, "ann.forward", parent, request};
  const ann::backends::KernelOps& ops = ann::backends::kernel_ops(backend_);
  const std::vector<std::size_t>& sizes = baseline_.layer_sizes();
  const std::size_t layers = baseline_.num_weight_layers();
  const std::size_t rows = test_->images.rows();
  const std::size_t batch = ann::EvalWorkspace::kDefaultBatchRows;
  std::size_t hits = 0;
  for (std::size_t r0 = 0; r0 < rows; r0 += batch) {
    const std::size_t m = std::min(batch, rows - r0);
    const float* in = test_->images.row(r0);
    for (std::size_t l = 0; l < layers; ++l) {
      next_.reshape(m, sizes[l + 1]);
      {
        const Scope gemm{&tracer, "ann.gemm", scope.id(), request};
        ops.gemm(in, baseline_.weight(l).data().data(), next_.data().data(),
                 m, sizes[l], sizes[l + 1]);
      }
      {
        const Scope act{&tracer, "ann.activate", scope.id(), request};
        ann::add_row_bias(next_, baseline_.bias(l));
        if (l + 1 == layers) {
          ann::softmax_rows_inplace(next_);
        } else {
          ann::activate_inplace(next_, baseline_.hidden_activation());
        }
      }
      std::swap(cur_, next_);
      in = cur_.row(0);
    }
    for (std::size_t r = 0; r < m; ++r) {
      const float* p = cur_.row(r);
      const auto best = static_cast<std::size_t>(
          std::max_element(p, p + cur_.cols()) - p);
      if (best == test_->labels[r0 + r]) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(rows);
}

void Checks::require(bool ok, const std::string& what) {
  if (ok) {
    ++passed;
  } else {
    failures.push_back(what);
  }
}

void restart_peak_rss() {
  ::malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // image this process exec'd from (run.py's interpreter).
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
