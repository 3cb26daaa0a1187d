// Pure, seed-driven logic of the pipeline benchmark: the op rotations of
// the three workloads, the serve request generator, latency percentiles and
// span self-time arithmetic. Nothing here touches the clock or the library's
// heavy layers, so tests/test_plan.cpp can pin every rule exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Pool participation cap and client connection count, whatever nproc says.
inline constexpr std::size_t kThreadCap = 2;

/// splitmix64 of (seed, index): the one seed-derivation rule of the bench.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

/// The paper's VDD grid (0.65 .. 0.95 V in 50 mV steps).
inline constexpr std::size_t kGridPoints = 7;
[[nodiscard]] double grid_vdd(std::size_t i);

// --- table_build -----------------------------------------------------------

/// One (cell, mechanism) pair of a failure-table row, in row order.
enum class CellMechanism {
  read_access_6t,
  write_6t,
  read_disturb_6t,
  read_access_8t,
  write_8t,
};
inline constexpr std::size_t kCellMechanisms = 5;

/// One table_build op: a single estimate_6t/estimate_8t call.
struct EstimateOp {
  std::size_t vdd_index = 0;
  CellMechanism cell_mechanism = CellMechanism::read_access_6t;
  std::uint64_t mc_seed = 0;
  std::uint64_t is_seed = 0;
};

/// Op `index` cycles vdd-major through the 7 x 5 grid (35 ops per cycle) with
/// fresh seeds derived from (seed, index).
[[nodiscard]] EstimateOp estimate_op(std::uint64_t seed, std::size_t index);

// --- paper_sweep -----------------------------------------------------------

/// all6t plus uniform hybrid with 1..4 MSBs in 8T.
inline constexpr std::size_t kSweepConfigs = 5;

/// One paper_sweep op: one (config, vdd) point.
struct SweepOp {
  int n_msb = 0;  ///< 0 = all6t
  std::size_t vdd_index = 0;
  std::size_t slot = 0;  ///< position in the 35-point rotation
};

/// Op `index` cycles config-major through the 5 x 7 points.
[[nodiscard]] SweepOp sweep_op(std::size_t index);

// --- serve_mixed -----------------------------------------------------------

inline constexpr std::size_t kServeConfigs = 4;    ///< all6t, hybrid1..3
inline constexpr std::size_t kWarmTables = 4;      ///< warm provenances
inline constexpr std::size_t kColdEvery = 16;      ///< cold-table share
inline constexpr std::size_t kSweepEvery = 10;     ///< 2x2 sweep share
inline constexpr std::size_t kColdSamples = 300;   ///< cold build budget
inline constexpr std::size_t kServeChips = 2;

enum class ServeKind { evaluate, sweep, cold };

/// One generated request, in library-neutral form.
struct ServeOp {
  ServeKind kind = ServeKind::evaluate;
  std::vector<std::string> configs;
  std::vector<double> vdds;
  std::uint64_t table_seed = 0;
  std::size_t mc_samples = 0;  ///< 0 = service default
};

/// Table seed of the set-up tables (the figure benches' default).
inline constexpr std::uint64_t kSetupTableSeed = 20160312;

/// The warm table seeds the set-up pre-builds (k < kWarmTables):
/// kSetupTableSeed + k. Like every set-up input they do not depend on the
/// workload seed, so set-up is identical on every run.
[[nodiscard]] std::uint64_t warm_table_seed(std::size_t k);

/// Request `k` of connection `conn`: every kColdEvery-th is a cold
/// evaluate on a never-seen table seed, else every kSweepEvery-th a 2x2
/// sweep, else an evaluate; warm points rotate through the 4 configs x 7
/// voltages in a fixed shuffled order and cycle through the warm tables.
/// The request stream is the same in every run -- its cost depends on which
/// point meets which table (some cold tables carry far higher fault rates
/// than others) -- and the workload seed enters through the evaluation
/// seed and the test slice.
[[nodiscard]] ServeOp serve_op(std::size_t conn, std::size_t k);

/// Service-wide evaluation seed of a run (constant across its requests, so
/// answers repeat and every distinct one can be checked).
[[nodiscard]] std::uint64_t serve_eval_seed(std::uint64_t seed) noexcept;

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile index into n ascending samples (q in (0, 1]).
[[nodiscard]] std::size_t percentile_index(std::size_t n, double q);

struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
  std::size_t beyond_p99 = 0;  ///< samples strictly ranked after p99
};
[[nodiscard]] LatencySummary summarize(std::vector<double> samples);

[[nodiscard]] double median(std::vector<double> values);

// --- spans -----------------------------------------------------------------

/// One closed span. `parent` indexes the same span list (-1 = root);
/// `request` groups the spans of one op.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// and may stick out of the parent; only the covered part is subtracted).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanRecord>& spans);

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Summed self time per span name over the spans under root spans named
/// `root` (the root itself included), in seconds.
[[nodiscard]] std::map<std::string, double> span_self_seconds(
    const std::vector<SpanRecord>& spans, const std::string& root);

/// span_self_seconds summed per layer.
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans, const std::string& root);

}  // namespace perfbench
