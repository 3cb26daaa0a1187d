// Shared fixtures of the pipeline benchmark: the paper's reference circuit
// stack, the Table-I network set-up, the measured-loop bookkeeping and the
// entry points of the three workloads and the layer probes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ann/mlp.hpp"
#include "circuit/reference.hpp"
#include "circuit/tech.hpp"
#include "ann/backends/backend.hpp"
#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "core/fault_model.hpp"
#include "core/quantized_network.hpp"
#include "data/dataset.hpp"
#include "mc/criteria.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"
#include "sram/array.hpp"
#include "sram/timing.hpp"
#include "trace.hpp"

namespace hynapse::engine {}
namespace hynapse::obs {}
namespace hynapse::serve {}
namespace hynapse::util {}

namespace perfbench {

namespace ann = hynapse::ann;
namespace circuit = hynapse::circuit;
namespace core = hynapse::core;
namespace data = hynapse::data;
namespace engine = hynapse::engine;
namespace mc = hynapse::mc;
namespace obs = hynapse::obs;
namespace serve = hynapse::serve;
namespace sram = hynapse::sram;
namespace util = hynapse::util;

/// The paper's reference circuit stack (ptm22, reference 6T/8T sizings,
/// 256x256 sub-array) and the Monte-Carlo inputs built on it. Not movable:
/// the criteria and the cycle model point into it.
struct CircuitStack {
  circuit::Technology tech;
  circuit::Sizing6T sizing6;
  circuit::Sizing8T sizing8;
  sram::SubArrayModel array;
  sram::CycleModel cycle;
  mc::VariationSampler sampler;
  mc::FailureCriteria criteria;

  CircuitStack();
  CircuitStack(const CircuitStack&) = delete;
  CircuitStack& operator=(const CircuitStack&) = delete;
};

/// The serve defaults every table in the bench uses: 4000 plain-MC samples,
/// 2000 importance samples, fixed-sample path.
[[nodiscard]] mc::AnalyzerOptions serve_budget(std::size_t threads);

/// Trains the Table-I network (784-1000-500-200-100-10) with the figure
/// benches' recipe (LeCun tanh, SGD over 8000 synthetic digits) for one
/// epoch instead of their 8: a chip's evaluation cost does not depend on
/// how far training went, and 8 epochs cost ~11 s of every run at 2 threads.
[[nodiscard]] ann::Mlp train_table1();

/// The 2000-image synthetic test set the figure benches evaluate on.
[[nodiscard]] data::Dataset table1_test_set();

/// `n` consecutive test images starting at a seed-chosen offset.
[[nodiscard]] data::Dataset test_slice(const data::Dataset& test,
                                       std::uint64_t seed, std::size_t n);

/// Bitwise equality of two accuracy results (every per-chip value).
[[nodiscard]] bool same_accuracy(const core::AccuracyResult& a,
                                 const core::AccuracyResult& b);

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t setups = 3;  ///< set-up repetitions behind setup_s
};

/// Runs `setup` `times` times (at least once), timing each into `setup_s`,
/// and returns the last result. The previous result is freed before the
/// next repetition, so peak memory holds one fixture.
template <typename Setup>
auto timed_setups(std::size_t times, std::vector<double>& setup_s,
                  Setup&& setup) {
  decltype(setup()) last;
  for (std::size_t k = 0; k < std::max<std::size_t>(times, 1); ++k) {
    last = nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    last = setup();
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  return last;
}

/// One measured closed loop.
struct Outcome {
  std::vector<double> latency_ms;  ///< one sample per completed op
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double work = 0.0;     ///< work units completed (estimates, chips, requests)
  double seconds = 0.0;  ///< wall time of the loop
};

/// One op of a closed loop: op(index, tracer, op_span) returns its work
/// units and throws when it fails; tracer is null when not traced.
using Op = std::function<double(std::size_t, Tracer*, std::int64_t)>;

/// Runs op 0, 1, 2, ... back to back until `seconds` have passed, timing
/// each call; each op gets a span named `span` when traced.
Outcome closed_loop(double seconds, Tracer* tracer, const std::string& span,
                    const Op& op);

/// The measured loop of a run. Untraced: one loop over spec.seconds.
/// Traced: four loops of a quarter of the time each, every one from op 0,
/// untraced, traced, traced, untraced, so that a steady drift of the host's
/// speed cancels out of the throughput lost to tracing
/// (bench.trace_overhead_frac). That and the traced loops' pool counters go
/// into `layer`. `reset`, when given, runs before every loop but the first,
/// outside the timing and the counters. The returned outcome merges all
/// four loops; its work/seconds are the untraced loops'.
Outcome measure(const RunSpec& spec, Tracer* tracer,
                std::map<std::string, double>& layer,
                const std::function<Outcome(double, Tracer*)>& loop,
                const std::function<void()>& reset = nullptr);

/// Correctness checks of one run; they never pin a failure rate.
struct Checks {
  std::size_t passed = 0;
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// What one workload run reports.
struct WorkloadResult {
  std::vector<double> setup_s;  ///< one per set-up repetition
  Outcome outcome;
  double peak_rss_mb = 0.0;  ///< see RssMark
  Checks checks;
  /// Traced run only: per-layer metrics owned by this workload.
  std::map<std::string, double> layer;
};

/// Layer-by-layer replay of the chip evaluations of one (config, vdd)
/// point, for the traced run's self-time anatomy: per chip, a
/// core.fault_apply span (the chip's fault deltas computed, applied and
/// reverted by core::EvalContext on an empty image set) and an ann.forward
/// span over a forward pass of the clean baseline, whose children are, per
/// layer, an ann.gemm span (the GEMM) and an ann.activate span (bias plus
/// tanh or softmax), the steps Mlp::accuracy takes.
class ChipAnatomy {
 public:
  ChipAnatomy(const core::QuantizedNetwork& qnet, const data::Dataset& test);

  /// Replays `chips` chips; returns the forward replay's accuracy, which
  /// must equal the clean baseline's Mlp::accuracy on the test set.
  double replay(Tracer& tracer, std::int64_t parent, std::uint64_t request,
                const core::MemoryConfig& config,
                const core::FaultModel& model, std::uint64_t eval_seed,
                std::size_t chips);

  /// Clean baseline accuracy through the library's own forward pass.
  [[nodiscard]] double baseline_accuracy() const;

  /// Fault deltas of the last replayed chip.
  [[nodiscard]] std::size_t last_deltas() const noexcept {
    return context_.last_deltas().size();
  }

  /// Times one chip's fault application alone (milliseconds).
  double fault_apply_ms(const core::MemoryConfig& config,
                        const core::FaultModel& model, std::uint64_t eval_seed,
                        std::size_t chip);

 private:
  double forward(Tracer& tracer, std::int64_t parent, std::uint64_t request);

  const core::QuantizedNetwork* qnet_;
  std::uint64_t qnet_fp_;
  ann::Mlp baseline_;
  const data::Dataset* test_;
  data::Dataset empty_;
  core::EvalContext context_;
  ann::backends::Backend backend_;
  ann::Matrix cur_;
  ann::Matrix next_;
};

/// One table_build op: the estimate_6t/estimate_8t call it names.
[[nodiscard]] mc::RateEstimate run_estimate(const mc::FailureAnalyzer& analyzer,
                                            const EstimateOp& op);

[[nodiscard]] WorkloadResult run_table_build(const RunSpec& spec,
                                             Tracer* tracer);
[[nodiscard]] WorkloadResult run_paper_sweep(const RunSpec& spec,
                                             Tracer* tracer);
[[nodiscard]] WorkloadResult run_serve_mixed(const RunSpec& spec,
                                             Tracer* tracer);

/// Layer probes for the traced run (root span "probe"): every per-layer
/// metric a workload did not already measure itself.
void run_probes(std::uint64_t seed, Tracer& tracer,
                std::map<std::string, double>& layer);

/// The serve_mixed service and client loop on an untrained Table-I net for
/// `seconds`, for the serve.* and engine.cache.* metrics of the other
/// workloads' traced runs.
void serve_probe(std::uint64_t seed, double seconds,
                 std::map<std::string, double>& layer);

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns the heap's free memory to the kernel (malloc_trim) and restarts
/// the kernel's peak-RSS counter at the current resident set. Where the
/// counter cannot be restarted, the peak keeps covering the whole process.
void restart_peak_rss();

/// Peak RSS from the end of set-up until a fixed number of ops has
/// completed. Set-up runs several times and glibc keeps an earlier
/// repetition's freed memory in whichever thread's arena held it, so a peak
/// over the repetitions took one of a few values from run to run; the
/// constructor therefore trims the heap and restarts the peak, and the peak
/// covers the live fixture plus the loop. Runs complete different op
/// counts, and a heavy op late in a long run (a cold table with a runaway
/// fault rate) must not make its peak differ from a shorter run's: every
/// run's peak covers the same first ops. A run that never reaches the mark
/// reports its peak at the end.
class RssMark {
 public:
  explicit RssMark(std::size_t ops) : ops_{ops} { restart_peak_rss(); }
  RssMark(const RssMark&) = delete;
  RssMark& operator=(const RssMark&) = delete;

  /// Called after every completed op, from any thread.
  void op_done() {
    if (done_.fetch_add(1) + 1 == ops_) mb_ = peak_rss_mb();
  }
  [[nodiscard]] double mb() const {
    const double at_mark = mb_;
    return at_mark > 0.0 ? at_mark : peak_rss_mb();
  }

 private:
  std::size_t ops_;
  std::atomic<std::size_t> done_{0};
  std::atomic<double> mb_{0.0};
};

}  // namespace perfbench
