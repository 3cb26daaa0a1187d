#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double grid_vdd(std::size_t i) {
  if (i >= kGridPoints) throw std::out_of_range{"grid_vdd"};
  static constexpr double kGrid[kGridPoints] = {0.65, 0.70, 0.75, 0.80,
                                                0.85, 0.90, 0.95};
  return kGrid[i];
}

EstimateOp estimate_op(std::uint64_t seed, std::size_t index) {
  const std::size_t slot = index % (kGridPoints * kCellMechanisms);
  EstimateOp op;
  op.vdd_index = slot / kCellMechanisms;
  op.cell_mechanism = static_cast<CellMechanism>(slot % kCellMechanisms);
  op.mc_seed = derive_seed(seed, 2 * index);
  op.is_seed = derive_seed(seed, 2 * index + 1);
  return op;
}

SweepOp sweep_op(std::size_t index) {
  const std::size_t slot = index % (kSweepConfigs * kGridPoints);
  return SweepOp{static_cast<int>(slot / kGridPoints), slot % kGridPoints,
                 slot};
}

std::uint64_t warm_table_seed(std::size_t k) {
  if (k >= kWarmTables) throw std::out_of_range{"warm_table_seed"};
  return kSetupTableSeed + k;  // below 2^32: never a cold seed (serve_op)
}

std::uint64_t serve_eval_seed(std::uint64_t seed) noexcept {
  return (derive_seed(seed, 999) >> 12) | 1;  // below 2^53, like wire seeds
}

namespace {

const char* const kServeConfigNames[kServeConfigs] = {"all6t", "hybrid1",
                                                      "hybrid2", "hybrid3"};

/// A fixed shuffle of the 4 x 7 (config, vdd) points, so consecutive
/// requests mix cheap and expensive points the same way in every run.
const std::vector<std::size_t>& point_order() {
  static const std::vector<std::size_t> order = [] {
    std::vector<std::size_t> o(kServeConfigs * kGridPoints);
    std::iota(o.begin(), o.end(), 0);
    for (std::size_t i = o.size() - 1; i > 0; --i) {
      std::swap(o[i], o[derive_seed(kSetupTableSeed, i) % (i + 1)]);
    }
    return o;
  }();
  return order;
}

}  // namespace

ServeOp serve_op(std::size_t conn, std::size_t k) {
  const std::vector<std::size_t>& order = point_order();
  ServeOp op;
  if (k % kColdEvery == kColdEvery - 1) {
    // Cold requests walk the points in grid order.
    const std::size_t point = (k / kColdEvery) % order.size();
    const std::size_t cfg = point / kGridPoints;
    const std::size_t vi = point % kGridPoints;
    op.kind = ServeKind::cold;
    op.configs = {kServeConfigNames[cfg]};
    op.vdds = {grid_vdd(vi)};
    // At or above 2^44 (warm seeds stay below 2^32) and distinct per
    // (conn, k), so every cold request misses the cache; below 2^53, so the
    // seed survives the wire's JSON numbers exactly.
    op.table_seed = (std::uint64_t{1} << 44) |
                    (static_cast<std::uint64_t>(conn & 0xF) << 32) |
                    (static_cast<std::uint64_t>(k) & 0xFFFFFFFFULL);
    op.mc_samples = kColdSamples;
    return op;
  }
  const std::size_t point = order[k % order.size()];
  const std::size_t cfg = point / kGridPoints;
  const std::size_t vi = point % kGridPoints;
  // Runs of 7 requests share a warm table, the two connections sit two
  // tables apart (so the two dispatchers tend to drain different tables),
  // and the table-to-point pairing shifts every cycle, so every point meets
  // every warm table.
  op.table_seed = warm_table_seed(
      (k / kGridPoints + k / order.size() + 2 * conn) % kWarmTables);
  if (k % kSweepEvery == kSweepEvery - 1) {
    op.kind = ServeKind::sweep;
    op.configs = {kServeConfigNames[cfg],
                  kServeConfigNames[(cfg + 1) % kServeConfigs]};
    op.vdds = {grid_vdd(vi), grid_vdd((vi + 3) % kGridPoints)};
    return op;
  }
  op.configs = {kServeConfigNames[cfg]};
  op.vdds = {grid_vdd(vi)};
  return op;
}

std::size_t percentile_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument{"percentile of no samples"};
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = samples[percentile_index(out.n, 0.50)];
  const std::size_t i99 = percentile_index(out.n, 0.99);
  out.p99 = samples[i99];
  out.beyond_p99 = out.n - 1 - i99;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> span_self_seconds(
    const std::vector<SpanRecord>& spans, const std::string& root) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<bool> inside(spans.size(), false);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    // Parents open (and are allocated) before their children.
    inside[i] = p < 0 ? spans[i].name == root
                      : inside.at(static_cast<std::size_t>(p));
    if (inside[i]) out[spans[i].name] += 1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans, const std::string& root) {
  std::map<std::string, double> out;
  for (const auto& [name, s] : span_self_seconds(spans, root)) {
    out[layer_of(name)] += s;
  }
  return out;
}

}  // namespace perfbench
