#include "mc/failure_table.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "mc/seed_schedule.hpp"
#include "util/parallel.hpp"

namespace hynapse::mc {

namespace {

// Interpolates a probability log-linearly; falls back to linear when either
// endpoint is zero (log undefined).
double interp_prob(double p_lo, double p_hi, double t) {
  if (p_lo > 0.0 && p_hi > 0.0) {
    return std::exp(std::log(p_lo) + t * (std::log(p_hi) - std::log(p_lo)));
  }
  return p_lo + t * (p_hi - p_lo);
}

// CSV format v3: first line "# hynapse-failure-table v3 fp=<hex64>",
// second line the column header, then one row per grid point. v3 adds the
// `samples`/`ci_half_width` sampling-metadata columns and permits the
// column line to reorder its fields (the loader maps by name); v2 files
// (fixed column order, no metadata) still load with zeroed metadata.
constexpr std::string_view kCsvMagicV3 = "# hynapse-failure-table v3 fp=";
constexpr std::string_view kCsvMagicV2 = "# hynapse-failure-table v2 fp=";
constexpr std::string_view kCsvColumnsV2 = "vdd,ra6,wr6,rd6,ra8,wr8,rd8";
constexpr std::string_view kCsvColumnsV3 =
    "vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples,ci_half_width";

/// Canonical v3 column names, indexing the per-row field table below.
constexpr std::string_view kColumnNames[] = {
    "vdd", "ra6", "wr6", "rd6", "ra8", "wr8", "rd8", "samples",
    "ci_half_width"};
constexpr std::size_t kColumnCount =
    sizeof(kColumnNames) / sizeof(kColumnNames[0]);
constexpr std::size_t kBaseColumnCount = 7;  // vdd + the six rates

double* row_field(FailureTableRow& r, std::size_t column) {
  switch (column) {
    case 0: return &r.vdd;
    case 1: return &r.cell6.read_access;
    case 2: return &r.cell6.write_fail;
    case 3: return &r.cell6.read_disturb;
    case 4: return &r.cell8.read_access;
    case 5: return &r.cell8.write_fail;
    case 6: return &r.cell8.read_disturb;
    case 7: return &r.samples;
    case 8: return &r.ci_half_width;
    default: return nullptr;
  }
}

/// Maps a v3 column-header line to canonical column indices. Rejects
/// unknown or duplicate names and requires every base column; the metadata
/// columns are optional (a tool may strip them). nullopt = malformed.
std::optional<std::vector<std::size_t>> parse_column_order(
    const std::string& line) {
  std::vector<std::size_t> order;
  bool seen[kColumnCount] = {};
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t comma = line.find(',', start);
    const std::string_view name =
        std::string_view{line}.substr(start, comma == std::string::npos
                                                 ? std::string::npos
                                                 : comma - start);
    std::size_t idx = kColumnCount;
    for (std::size_t i = 0; i < kColumnCount; ++i) {
      if (name == kColumnNames[i]) idx = i;
    }
    if (idx == kColumnCount || seen[idx]) return std::nullopt;
    seen[idx] = true;
    order.push_back(idx);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  for (std::size_t i = 0; i < kBaseColumnCount; ++i) {
    if (!seen[i]) return std::nullopt;
  }
  return order;
}

bool valid_rate(double p) {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

}  // namespace

std::pair<std::size_t, std::size_t> shard_bounds(std::size_t n,
                                                 std::size_t shard,
                                                 std::size_t shard_count) {
  if (shard_count == 0 || shard >= shard_count) {
    throw std::invalid_argument{"shard_bounds: shard " + std::to_string(shard) +
                                " of " + std::to_string(shard_count)};
  }
  // i*n/count boundaries: contiguous, exhaustive, sizes differ by <= 1.
  return {shard * n / shard_count, (shard + 1) * n / shard_count};
}

FailureTable::FailureTable(std::vector<FailureTableRow> rows)
    : rows_{std::move(rows)} {
  if (rows_.empty()) throw std::invalid_argument{"FailureTable: no rows"};
  std::sort(rows_.begin(), rows_.end(),
            [](const FailureTableRow& a, const FailureTableRow& b) {
              return a.vdd < b.vdd;
            });
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i].vdd == rows_[i - 1].vdd) {
      throw std::invalid_argument{"FailureTable: duplicate vdd " +
                                  std::to_string(rows_[i].vdd)};
    }
  }
}

FailureTable FailureTable::build(const FailureAnalyzer& analyzer,
                                 std::span<const double> vdd_grid,
                                 std::uint64_t seed) {
  std::vector<FailureTableRow> rows(vdd_grid.size());
  for (std::size_t r = 0; r < vdd_grid.size(); ++r) rows[r].vdd = vdd_grid[r];

  // Flat (voltage x cell-type x mechanism) job matrix over the seed
  // schedule analyze_6t/analyze_8t use, so the table is bit-identical for
  // any thread count. Jobs land full estimates in a scratch matrix; the
  // serial pass below then aggregates the per-row sampling metadata
  // race-free.
  constexpr std::size_t kSlots = std::size(kSeedSchedule);
  const std::uint64_t seed8 = seed ^ 0xabcdefull;
  std::vector<RateEstimate> ests(vdd_grid.size() * kSlots);
  util::parallel_for(
      vdd_grid.size() * kSlots,
      [&](std::size_t j) {
        const ScheduledEstimate& job = kSeedSchedule[j % kSlots];
        ests[j] = run_scheduled(analyzer, job, rows[j / kSlots].vdd,
                                job.cell8 ? seed8 : seed);
      },
      analyzer.options().threads);
  for (std::size_t r = 0; r < vdd_grid.size(); ++r) {
    const RateEstimate* slot = &ests[r * kSlots];
    rows[r].cell6.read_access = slot[0].p;
    rows[r].cell6.write_fail = slot[1].p;
    rows[r].cell6.read_disturb = slot[2].p;
    rows[r].cell8.read_access = slot[3].p;
    rows[r].cell8.write_fail = slot[4].p;
    double spent = 0.0;
    double worst = 0.0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      spent += static_cast<double>(slot[s].total_samples);
      worst = std::max(worst, slot[s].ci_half_width());
    }
    rows[r].samples = spent;
    rows[r].ci_half_width = worst;
  }
  return FailureTable{std::move(rows)};
}

FailureTable FailureTable::build_shard(const FailureAnalyzer& analyzer,
                                       std::span<const double> vdd_grid,
                                       std::uint64_t seed, std::size_t shard,
                                       std::size_t shard_count) {
  const auto [begin, end] = shard_bounds(vdd_grid.size(), shard, shard_count);
  if (begin == end) {
    throw std::invalid_argument{
        "FailureTable::build_shard: shard " + std::to_string(shard) + " of " +
        std::to_string(shard_count) + " is empty over a " +
        std::to_string(vdd_grid.size()) + "-point grid"};
  }
  // The per-mechanism seeds are functions of `seed` alone, so building the
  // sub-grid directly reproduces the monolithic rows bit-for-bit.
  return build(analyzer, vdd_grid.subspan(begin, end - begin), seed);
}

FailureTable FailureTable::merge(std::span<const FailureTable> shards) {
  if (shards.empty()) {
    throw std::invalid_argument{"FailureTable::merge: no shards"};
  }
  std::vector<FailureTableRow> rows;
  std::size_t total = 0;
  for (const FailureTable& shard : shards) total += shard.rows().size();
  rows.reserve(total);
  for (const FailureTable& shard : shards) {
    rows.insert(rows.end(), shard.rows().begin(), shard.rows().end());
  }
  // The constructor sorts by vdd and rejects duplicates, which makes the
  // merge order-invariant and double-merge-safe in one step.
  return FailureTable{std::move(rows)};
}

BitcellFailureRates FailureTable::interpolate(double vdd, bool cell8) const {
  const auto pick = [cell8](const FailureTableRow& r) -> const BitcellFailureRates& {
    return cell8 ? r.cell8 : r.cell6;
  };
  if (vdd <= rows_.front().vdd) return pick(rows_.front());
  if (vdd >= rows_.back().vdd) return pick(rows_.back());
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (vdd <= rows_[i].vdd) {
      const FailureTableRow& lo = rows_[i - 1];
      const FailureTableRow& hi = rows_[i];
      const double t = (vdd - lo.vdd) / (hi.vdd - lo.vdd);
      const BitcellFailureRates& a = pick(lo);
      const BitcellFailureRates& b = pick(hi);
      BitcellFailureRates out;
      // Rates fall with rising voltage; interpolate each mechanism.
      out.read_access = interp_prob(a.read_access, b.read_access, t);
      out.write_fail = interp_prob(a.write_fail, b.write_fail, t);
      out.read_disturb = interp_prob(a.read_disturb, b.read_disturb, t);
      return out;
    }
  }
  return pick(rows_.back());
}

double FailureTable::total_samples() const noexcept {
  double total = 0.0;
  for (const FailureTableRow& r : rows_) total += r.samples;
  return total;
}

double FailureTable::max_ci_half_width() const noexcept {
  double worst = 0.0;
  for (const FailureTableRow& r : rows_) {
    worst = std::max(worst, r.ci_half_width);
  }
  return worst;
}

BitcellFailureRates FailureTable::rates_6t(double vdd) const {
  if (rows_.empty()) throw std::logic_error{"FailureTable: empty"};
  return interpolate(vdd, false);
}

BitcellFailureRates FailureTable::rates_8t(double vdd) const {
  if (rows_.empty()) throw std::logic_error{"FailureTable: empty"};
  return interpolate(vdd, true);
}

void FailureTable::save_csv(const std::string& path,
                            std::uint64_t fingerprint) const {
  // Crash-safe persistence: write the full file to a sibling temp path,
  // then atomically rename it over the destination. An interrupted run can
  // leave a stale temp file behind, but never a truncated CSV at `path`
  // that a later load would have to detect and reject. The temp name is
  // unique per (process, call) so concurrent savers of the same path --
  // whether threads or processes sharing a cache directory -- cannot
  // interleave writes into one temp file (last rename wins, and every
  // candidate is complete).
  static std::atomic<unsigned long> save_seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) throw std::runtime_error{"FailureTable: cannot open " + tmp};
    out << kCsvMagicV3 << std::hex << fingerprint << std::dec << '\n';
    out << kCsvColumnsV3 << '\n';
    out.precision(17);  // exact double round-trip
    for (const auto& r : rows_) {
      out << r.vdd << ',' << r.cell6.read_access << ',' << r.cell6.write_fail
          << ',' << r.cell6.read_disturb << ',' << r.cell8.read_access << ','
          << r.cell8.write_fail << ',' << r.cell8.read_disturb << ','
          << r.samples << ',' << r.ci_half_width << '\n';
    }
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error{"FailureTable: short write to " + tmp};
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error{"FailureTable: cannot rename " + tmp + " to " +
                             path + ": " + why};
  }
}

std::optional<FailureTable> FailureTable::load_csv(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::uint64_t* file_fingerprint) {
  if (file_fingerprint != nullptr) *file_fingerprint = 0;
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::string line;

  // Version/fingerprint header. v3 is current; v2 (no sampling-metadata
  // columns) still loads with zeroed metadata.
  if (!std::getline(in, line)) return std::nullopt;
  bool v3 = true;
  std::string_view magic = kCsvMagicV3;
  if (line.rfind(kCsvMagicV3, 0) != 0) {
    if (line.rfind(kCsvMagicV2, 0) != 0) {
      return std::nullopt;  // missing or pre-v2 header: treat as stale
    }
    v3 = false;
    magic = kCsvMagicV2;
  }
  std::uint64_t file_fp = 0;
  {
    std::istringstream fp{line.substr(magic.size())};
    fp >> std::hex >> file_fp;
    if (fp.fail()) return std::nullopt;
  }
  if (file_fingerprint != nullptr) *file_fingerprint = file_fp;
  if (expected_fingerprint != 0 && file_fp != expected_fingerprint) {
    return std::nullopt;  // a different table (grid/options/seed changed)
  }

  // Column line: v2 is the fixed legacy order; v3 names its columns and may
  // reorder them (the loader maps by name).
  if (!std::getline(in, line)) return std::nullopt;
  std::vector<std::size_t> order;
  if (v3) {
    std::optional<std::vector<std::size_t>> parsed = parse_column_order(line);
    if (!parsed) return std::nullopt;
    order = std::move(*parsed);
  } else {
    if (line != kCsvColumnsV2) return std::nullopt;
    order = {0, 1, 2, 3, 4, 5, 6};
  }

  std::vector<FailureTableRow> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss{line};
    FailureTableRow r;
    for (std::size_t f = 0; f < order.size(); ++f) {
      if (f > 0) {
        char comma = 0;
        if (!(ss >> comma) || comma != ',') return std::nullopt;
      }
      if (!(ss >> *row_field(r, order[f]))) return std::nullopt;
    }
    if (!(ss >> std::ws).eof()) return std::nullopt;
    if (!std::isfinite(r.vdd) || r.vdd <= 0.0) return std::nullopt;
    if (!std::isfinite(r.samples) || r.samples < 0.0) return std::nullopt;
    if (!std::isfinite(r.ci_half_width) || r.ci_half_width < 0.0 ||
        r.ci_half_width > 1.0) {
      return std::nullopt;
    }
    // The grid must be strictly increasing: save_csv writes sorted rows, so
    // a duplicate or out-of-order vdd means the file was hand-edited or two
    // shards were concatenated -- accepting it would corrupt shard merges
    // (FailureTable's constructor only catches the duplicate case, throwing
    // instead of reporting a load failure).
    if (!rows.empty() && r.vdd <= rows.back().vdd) return std::nullopt;
    for (double p : {r.cell6.read_access, r.cell6.write_fail,
                     r.cell6.read_disturb, r.cell8.read_access,
                     r.cell8.write_fail, r.cell8.read_disturb}) {
      if (!valid_rate(p)) return std::nullopt;
    }
    rows.push_back(r);
  }
  if (rows.empty()) return std::nullopt;
  return FailureTable{std::move(rows)};
}

}  // namespace hynapse::mc
