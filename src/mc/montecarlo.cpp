#include "mc/montecarlo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <utility>

#include "mc/seed_schedule.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace hynapse::mc {

namespace {

// ---- the sampling core -----------------------------------------------------
// Every estimator runs through sample_chunks: a fixed grid of chunks, each
// drawing per_chunk samples from its own Rng stream into an accumulator, with
// the partials folded in ascending chunk order (parallel_reduce). The chunk
// grid and the streams depend only on the seed, so every result is
// bit-identical for any thread count. Two stream layouts exist:
//  - fixed (plain_mc_*, importance_*, the fixed path): kChunks = 64 chunks,
//    chunk c seeded from chunk_seed(seed, c) -- fixed_stream();
//  - batch (one adaptive batch): kBatchChunks = 16 chunks sharing the Rng
//    seeded from chunk_seed(seed, batch index), chunk c jumped ahead by
//    c * 2^44 draws so chunk streams never overlap -- BatchedPhase::step().

constexpr std::size_t kChunks = 64;
constexpr std::size_t kBatchChunks = 16;
constexpr std::uint64_t kChunkStride = 1ull << 44;

std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * (chunk + 1));
  return util::splitmix64(s);
}

/// The one sampling kernel: chunk c draws per_chunk samples from stream(c),
/// each folded into the chunk's Acc (a hit count or an IsPartial) by
/// sample(rng, acc).
template <typename Acc, typename Stream, typename SampleFn>
Acc sample_chunks(std::size_t chunks, const Stream& stream,
                  std::size_t per_chunk, const SampleFn& sample,
                  std::size_t threads) {
  return util::parallel_reduce(
      chunks, chunks, Acc{},
      [&](std::size_t begin, std::size_t end) {
        Acc acc{};
        for (std::size_t c = begin; c < end; ++c) {
          util::Rng rng = stream(c);
          for (std::size_t s = 0; s < per_chunk; ++s) sample(rng, acc);
        }
        return acc;
      },
      [](Acc a, const Acc& b) { return a += b; }, threads);
}

auto fixed_stream(std::uint64_t seed) {
  return [seed](std::size_t c) { return util::Rng{chunk_seed(seed, c)}; };
}

// ---- cells and limit states ------------------------------------------------

/// Everything that differs between the 6T and 8T analyses.
struct Cell6T {
  static constexpr std::size_t kDevices = k6t_devices;
  static constexpr auto sample = &VariationSampler::sample_6t;
  static constexpr auto pack = &VariationSampler::pack_6t;
  static constexpr auto sigmas = &VariationSampler::sigmas_6t;
  static constexpr auto metric = &FailureCriteria::metric_6t;
};

struct Cell8T {
  static constexpr std::size_t kDevices = k8t_devices;
  static constexpr auto sample = &VariationSampler::sample_8t;
  static constexpr auto pack = &VariationSampler::pack_8t;
  static constexpr auto sigmas = &VariationSampler::sigmas_8t;
  static constexpr auto metric = &FailureCriteria::metric_8t;
};

/// One limit state of one cell type (positive = fail). hit() is the plain-MC
/// predicate on a fresh sample; metric() evaluates a flat dVT vector for
/// importance sampling. The metric is a template argument, not a
/// std::function, so the sampling loops inline it.
template <typename Cell, typename Metric>
struct LimitState {
  static constexpr std::size_t kDevices = Cell::kDevices;
  using Vector = std::array<double, kDevices>;

  const VariationSampler& sampler;
  Metric fails;

  bool hit(util::Rng& rng) const {
    return fails((sampler.*Cell::sample)(rng)) > 0.0;
  }
  double metric(const Vector& dvt) const { return fails(Cell::pack(dvt)); }
  const Vector& sigmas() const { return (sampler.*Cell::sigmas)(); }
};

/// The limit state of a read/write mechanism at vdd.
template <typename Cell>
auto mechanism(const FailureCriteria& criteria, const VariationSampler& sampler,
               Mechanism m, double vdd) {
  const auto fails = [&criteria, m, vdd](const auto& var) {
    return (criteria.*Cell::metric)(m, var, vdd);
  };
  return LimitState<Cell, decltype(fails)>{sampler, fails};
}

// ---- plain MC --------------------------------------------------------------

template <typename LS>
auto hit_counter(const LS& ls) {
  return [&ls](util::Rng& rng, std::size_t& hits) {
    if (ls.hit(rng)) ++hits;
  };
}

RateEstimate mc_estimate(std::size_t hits, std::size_t trials,
                         util::Interval ci) {
  RateEstimate r;
  r.trials = trials;
  r.hits = static_cast<double>(hits);
  r.p = static_cast<double>(hits) / static_cast<double>(trials);
  r.ci_lo = ci.lo;
  r.ci_hi = ci.hi;
  r.total_samples = trials;
  return r;
}

template <typename LS>
RateEstimate plain_mc(const LS& ls, std::size_t n, std::uint64_t seed,
                      std::size_t threads) {
  const std::size_t per_chunk = (n + kChunks - 1) / kChunks;
  const std::size_t trials = per_chunk * kChunks;
  const std::size_t hits = sample_chunks<std::size_t>(
      kChunks, fixed_stream(seed), per_chunk, hit_counter(ls), threads);
  return mc_estimate(hits, trials, util::wilson_interval(hits, trials));
}

// ---- importance sampling ---------------------------------------------------

/// The IS mean shift, and the only place the proposal is chosen: beta sigmas
/// along the normalized central-difference gradient (+-0.5 sigma per device)
/// of the limit state at the origin, in standardized coordinates. nullopt
/// when the metric is flat there.
template <typename LS>
std::optional<typename LS::Vector> mean_shift(const LS& ls, double beta) {
  const typename LS::Vector& sigmas = ls.sigmas();
  typename LS::Vector grad{};
  double norm = 0.0;
  for (std::size_t i = 0; i < LS::kDevices; ++i) {
    typename LS::Vector plus{};
    typename LS::Vector minus{};
    plus[i] = 0.5 * sigmas[i];
    minus[i] = -0.5 * sigmas[i];
    grad[i] = ls.metric(plus) - ls.metric(minus);
    norm += grad[i] * grad[i];
  }
  norm = std::sqrt(norm);
  if (norm <= 0.0) return std::nullopt;
  typename LS::Vector mu{};
  for (std::size_t i = 0; i < LS::kDevices; ++i) mu[i] = beta * grad[i] / norm;
  return mu;
}

/// Per-chunk partial of the weighted importance-sampling estimator.
struct IsPartial {
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::size_t hits = 0;

  IsPartial& operator+=(const IsPartial& o) {
    sum_w += o.sum_w;
    sum_w2 += o.sum_w2;
    hits += o.hits;
    return *this;
  }
};

/// One IS draw: x = mu + z (z ~ N(0, I), back to volts per device); a hit is
/// weighted by the likelihood ratio exp(-mu.x + beta^2 / 2).
template <typename LS>
auto weighted_hits(const LS& ls, const typename LS::Vector& mu, double beta) {
  return [&ls, &mu, mu_sq = beta * beta](util::Rng& rng, IsPartial& part) {
    const typename LS::Vector& sigmas = ls.sigmas();
    typename LS::Vector x{};
    double dot = 0.0;
    for (std::size_t i = 0; i < LS::kDevices; ++i) {
      const double z = rng.normal();
      const double xi = mu[i] + z;
      dot += mu[i] * xi;
      x[i] = xi * sigmas[i];
    }
    if (ls.metric(x) > 0.0) {
      const double w = std::exp(-dot + 0.5 * mu_sq);
      part.sum_w += w;
      part.sum_w2 += w * w;
      ++part.hits;
    }
  };
}

/// The weighted estimate over `trials` draws and its delta-method standard
/// error.
std::pair<double, double> is_moments(const IsPartial& sum,
                                     std::size_t trials) {
  const double total = static_cast<double>(trials);
  const double p = sum.sum_w / total;
  const double var = std::max(0.0, sum.sum_w2 / total - p * p) / total;
  return {p, std::sqrt(var)};
}

RateEstimate is_estimate(const IsPartial& sum, std::size_t trials, double z) {
  const auto [p, se] = is_moments(sum, trials);
  RateEstimate r;
  r.p = p;
  r.ci_lo = std::max(0.0, p - z * se);
  r.ci_hi = std::min(1.0, p + z * se);
  r.trials = trials;
  r.hits = static_cast<double>(sum.hits);
  r.total_samples = trials;
  r.importance_sampled = true;
  return r;
}

/// IS answer for a limit state insensitive to variation: the nominal
/// verdict only.
template <typename LS>
RateEstimate nominal_verdict(const LS& ls, std::size_t trials) {
  RateEstimate r;
  r.p = ls.metric(typename LS::Vector{}) > 0.0 ? 1.0 : 0.0;
  r.ci_lo = r.p;
  r.ci_hi = r.p;
  r.trials = trials;
  r.total_samples = trials;
  r.importance_sampled = true;
  return r;
}

template <typename LS>
RateEstimate importance(const LS& ls, std::size_t n, double beta,
                        std::uint64_t seed, std::size_t threads) {
  const auto mu = mean_shift(ls, beta);
  if (!mu) return nominal_verdict(ls, n);
  const std::size_t per_chunk = (n + kChunks - 1) / kChunks;
  const IsPartial sum =
      sample_chunks<IsPartial>(kChunks, fixed_stream(seed), per_chunk,
                               weighted_hits(ls, *mu, beta), threads);
  return is_estimate(sum, per_chunk * kChunks, 1.96);
}

/// The fixed-sample path: plain MC, re-estimated by importance sampling when
/// it saw fewer than min_hits_for_mc hits. The plain-MC samples stay in the
/// ledger (total_samples, batches).
template <typename LS>
RateEstimate fixed_estimate(const LS& ls, const AnalyzerOptions& opts,
                            std::uint64_t mc_seed, std::uint64_t is_seed) {
  RateEstimate est = plain_mc(ls, opts.mc_samples, mc_seed, opts.threads);
  if (est.hits >= static_cast<double>(opts.min_hits_for_mc)) return est;
  const std::size_t mc_spent = est.total_samples;
  est = importance(ls, opts.is_samples, opts.is_beta, is_seed, opts.threads);
  est.total_samples += mc_spent;
  ++est.batches;
  return est;
}

// ---- adaptive (CI-targeted) sampling ---------------------------------------
// docs/adaptive_mc.md. Batch sizes are a pure function of the policy and the
// deterministic cumulative (hits, trials) sequence, and every batch draws
// from its own batch streams, so the stopping decisions and the estimate are
// thread-count invariant too.

/// Process-wide adaptive-sampler counters (obs naming: mc.adaptive.*).
struct AdaptiveInstruments {
  obs::Counter& estimates;
  obs::Counter& batches;
  obs::Counter& samples_saved;
  obs::Counter& ci_misses;

  static AdaptiveInstruments& get() {
    static AdaptiveInstruments* instruments = [] {
      obs::Registry& r = obs::Registry::global();
      return new AdaptiveInstruments{
          r.counter("mc.adaptive.estimates"),
          r.counter("mc.adaptive.batches"),
          r.counter("mc.adaptive.samples_saved"),
          r.counter("mc.adaptive.ci_misses"),
      };
    }();
    return *instruments;
  }
};

/// Policy with every 0-means-default resolved against the analyzer options
/// and clamped to sane ranges (batches are chunk multiples, min <= max).
struct ResolvedPolicy {
  double rel = 0.0;
  double abs = 0.0;
  double z = 1.96;
  double confidence = 0.95;
  IntervalKind interval = IntervalKind::wilson;
  std::size_t batch0 = 0;
  double growth = 2.0;
  std::size_t min_mc = 0;
  std::size_t max_mc = 0;
  std::size_t tail_escape = 0;
  std::size_t max_is = 0;
  std::size_t min_hits = 0;
};

ResolvedPolicy resolve_policy(const AnalyzerOptions& opts) {
  const AdaptivePolicy& p = opts.adaptive;
  ResolvedPolicy r;
  r.rel = std::max(0.0, p.rel_target);
  r.abs = std::max(0.0, p.abs_target);
  r.z = p.z > 0.0 ? p.z : 1.96;
  r.confidence =
      std::clamp(2.0 * util::normal_cdf(r.z) - 1.0, 0.5, 1.0 - 1e-12);
  r.interval = p.interval;
  r.max_mc = std::max<std::size_t>(
      p.max_samples != 0 ? p.max_samples : opts.mc_samples, kBatchChunks);
  r.min_mc = std::clamp<std::size_t>(p.min_samples, kBatchChunks, r.max_mc);
  r.batch0 = std::clamp<std::size_t>(p.batch_samples, kBatchChunks, r.max_mc);
  r.growth = std::clamp(p.batch_growth, 1.0, 8.0);
  r.tail_escape =
      p.tail_escape_samples != 0
          ? std::clamp(p.tail_escape_samples, r.min_mc, r.max_mc)
          : r.max_mc;
  r.max_is = std::max<std::size_t>(
      p.max_is_samples != 0 ? p.max_is_samples : opts.is_samples,
      kBatchChunks);
  r.min_hits = opts.min_hits_for_mc;
  return r;
}

util::Interval stopping_interval(const ResolvedPolicy& pol, std::size_t hits,
                                 std::size_t trials) {
  if (pol.interval == IntervalKind::clopper_pearson) {
    return util::clopper_pearson_interval(hits, trials, pol.confidence);
  }
  return util::wilson_interval(hits, trials, pol.z);
}

/// The stopping rule proper: the looser of the relative and absolute
/// half-width targets wins; both zero (or p = 0 with no abs target) means
/// "keep sampling".
bool target_met(const ResolvedPolicy& pol, double p, double half_width) {
  const double target = std::max(pol.abs, pol.rel * p);
  return target > 0.0 && half_width <= target;
}

/// One batched phase (plain MC or IS) of the adaptive path: requests start
/// at the first batch size and grow geometrically, clamped so the phase
/// never exceeds max_total trials.
struct BatchedPhase {
  std::uint64_t seed;
  std::size_t max_total;
  double growth;
  std::size_t threads;
  double next_batch;
  std::size_t trials = 0;
  std::size_t batches = 0;

  /// The one batch step: draws the next batch into acc. Returns false,
  /// drawing nothing, once fewer than kBatchChunks trials of the budget are
  /// left.
  template <typename Acc, typename SampleFn>
  bool step(const SampleFn& sample, Acc& acc) {
    if (trials >= max_total) return false;
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(next_batch), max_total - trials);
    std::size_t per_chunk = (want + kBatchChunks - 1) / kBatchChunks;
    if (trials + per_chunk * kBatchChunks > max_total) {
      per_chunk = (max_total - trials) / kBatchChunks;
    }
    if (per_chunk == 0) return false;
    const util::Rng base{chunk_seed(seed, batches)};
    const auto stream = [&base](std::size_t c) {
      util::Rng rng = base;
      rng.discard(static_cast<std::uint64_t>(c) * kChunkStride);
      return rng;
    };
    acc += sample_chunks<Acc>(kBatchChunks, stream, per_chunk, sample, threads);
    trials += per_chunk * kBatchChunks;
    ++batches;
    next_batch *= growth;
    return true;
  }
};

void record_adaptive(const AnalyzerOptions& opts, const RateEstimate& r) {
  AdaptiveInstruments& in = AdaptiveInstruments::get();
  in.estimates.add(1);
  in.batches.add(r.batches);
  if (opts.mc_samples > r.total_samples) {
    in.samples_saved.add(opts.mc_samples - r.total_samples);
  }
  if (!r.converged) in.ci_misses.add(1);
}

/// Importance-sampled tail phase of the adaptive path: the fixed path's
/// mean-shifted estimator, run in growing batches until the delta-method CI
/// meets the policy target or the IS clamp is spent.
template <typename LS>
RateEstimate adaptive_importance(const LS& ls, const ResolvedPolicy& pol,
                                 double beta, std::uint64_t seed,
                                 std::size_t threads) {
  const auto mu = mean_shift(ls, beta);
  if (!mu) {
    RateEstimate r = nominal_verdict(ls, 0);
    r.batches = 0;
    return r;
  }
  const auto sample = weighted_hits(ls, *mu, beta);
  BatchedPhase is{seed, pol.max_is, pol.growth, threads,
                  static_cast<double>(pol.batch0)};
  IsPartial sum;
  bool converged = false;
  while (is.step(sample, sum)) {
    const auto [p, se] = is_moments(sum, is.trials);
    if (target_met(pol, p, pol.z * se)) {
      converged = true;
      break;
    }
  }
  RateEstimate r = is_estimate(sum, is.trials, pol.z);
  r.batches = is.batches;
  r.converged = converged;
  return r;
}

/// The adaptive driver: batched plain MC with the CI stopping rule, escaping
/// to the importance-sampled tail once the mechanism is demonstrably rare:
/// after tail_escape trials, when the CI upper bound on p projects fewer
/// than min_hits_for_mc hits over the full plain-MC budget (or when the
/// budget runs out still hit-starved).
template <typename LS>
RateEstimate adaptive_estimate(const LS& ls, const AnalyzerOptions& opts,
                               std::uint64_t mc_seed, std::uint64_t is_seed) {
  const ResolvedPolicy pol = resolve_policy(opts);
  const auto sample = hit_counter(ls);
  BatchedPhase mc{mc_seed, pol.max_mc, pol.growth, opts.threads,
                  static_cast<double>(pol.batch0)};
  std::size_t hits = 0;
  bool converged = false;
  util::Interval ci{};
  // Samples plain MC until the CI target is met or the budget is spent.
  // Before the IS escape (resumed == false) the target needs min_hits hits
  // and a hit-starved rare mechanism escapes instead; after the consistency
  // guard below (resumed == true) neither applies.
  const auto run_mc = [&](bool resumed) {
    while (mc.step(sample, hits)) {
      ci = stopping_interval(pol, hits, mc.trials);
      if (mc.trials < pol.min_mc) continue;  // hard min clamp: no stopping
      const double p =
          static_cast<double>(hits) / static_cast<double>(mc.trials);
      if (resumed || hits >= pol.min_hits) {
        if (target_met(pol, p, 0.5 * (ci.hi - ci.lo))) {
          converged = true;
          return;
        }
      } else if (mc.trials >= pol.tail_escape &&
                 ci.hi * static_cast<double>(pol.max_mc) <
                     1.5 * static_cast<double>(pol.min_hits)) {
        // Demonstrably rare: even p at its CI upper bound projects into the
        // fixed path's own IS-fallback region (under min_hits over the FULL
        // plain-MC budget, with 1.5x slack because ci.hi is already a
        // conservative upper-confidence bound), so the mechanism is beyond
        // plain-MC reach and the budget is better spent on the IS tail. (A
        // merely hit-starved mechanism -- say p ~ 2e-3 with ~8 hits in the
        // escape window -- fails this test by an order of magnitude and
        // keeps sampling plain MC, where its estimate is unbiased; the IS
        // mean-shift is tuned for far-tail rates and is the wrong tool
        // there.)
        return;
      }
    }
  };
  const auto mc_result = [&] {
    RateEstimate r = mc_estimate(hits, mc.trials, ci);
    r.batches = mc.batches;
    r.converged = converged;
    return r;
  };

  run_mc(false);
  if (hits >= pol.min_hits) {
    const RateEstimate r = mc_result();
    record_adaptive(opts, r);
    return r;
  }

  RateEstimate r =
      adaptive_importance(ls, pol, opts.is_beta, is_seed, opts.threads);
  // Consistency guard: the escape was a projection from sparse evidence. If
  // the IS answer falls below even the lower confidence bound of the plain-MC
  // hits already observed, the mean-shift missed the dominant failure region
  // (its moderate-p bias, not a tail) -- discard it and resume plain MC,
  // whose estimate is unbiased at any rate. Genuine tail escapes observe
  // zero hits and are untouched. Depends only on deterministic counts, so
  // thread-count invariance is preserved. (mc.trials >= min_mc here, so the
  // resumed loop's min clamp never fires.)
  if (hits > 0 && r.p < stopping_interval(pol, hits, mc.trials).lo) {
    run_mc(true);
    RateEstimate resumed = mc_result();
    resumed.total_samples += r.trials;
    resumed.batches += r.batches;
    record_adaptive(opts, resumed);
    return resumed;
  }
  r.total_samples += mc.trials;
  r.batches += mc.batches;
  record_adaptive(opts, r);
  return r;
}

template <typename LS>
RateEstimate estimate(const LS& ls, const AnalyzerOptions& opts,
                      std::uint64_t mc_seed, std::uint64_t is_seed) {
  return opts.adaptive.enabled ? adaptive_estimate(ls, opts, mc_seed, is_seed)
                               : fixed_estimate(ls, opts, mc_seed, is_seed);
}

CellFailureRates analyze(const FailureAnalyzer& analyzer, bool cell8,
                         double vdd, std::uint64_t seed) {
  CellFailureRates out;
  out.read_disturb.trials = analyzer.options().mc_samples;  // 8T: impossible
  for (const ScheduledEstimate& job : kSeedSchedule) {
    if (job.cell8 == cell8) {
      out.*job.rate = run_scheduled(analyzer, job, vdd, seed);
    }
  }
  return out;
}

}  // namespace

// Every public estimator forwards to the templates above, instantiated for
// the cell's traits.

FailureAnalyzer::FailureAnalyzer(const FailureCriteria& criteria,
                                 const VariationSampler& sampler,
                                 AnalyzerOptions opts)
    : criteria_{&criteria}, sampler_{&sampler}, opts_{opts} {}

RateEstimate FailureAnalyzer::plain_mc_6t(Mechanism m, double vdd,
                                          std::size_t n,
                                          std::uint64_t seed) const {
  return plain_mc(mechanism<Cell6T>(*criteria_, *sampler_, m, vdd), n, seed,
                  opts_.threads);
}

RateEstimate FailureAnalyzer::plain_mc_8t(Mechanism m, double vdd,
                                          std::size_t n,
                                          std::uint64_t seed) const {
  return plain_mc(mechanism<Cell8T>(*criteria_, *sampler_, m, vdd), n, seed,
                  opts_.threads);
}

RateEstimate FailureAnalyzer::importance_6t(Mechanism m, double vdd,
                                            std::size_t n,
                                            std::uint64_t seed) const {
  return importance(mechanism<Cell6T>(*criteria_, *sampler_, m, vdd), n,
                    opts_.is_beta, seed, opts_.threads);
}

RateEstimate FailureAnalyzer::importance_8t(Mechanism m, double vdd,
                                            std::size_t n,
                                            std::uint64_t seed) const {
  return importance(mechanism<Cell8T>(*criteria_, *sampler_, m, vdd), n,
                    opts_.is_beta, seed, opts_.threads);
}

RateEstimate FailureAnalyzer::retention_6t(double v_standby,
                                           std::uint64_t seed) const {
  const auto fails = [this, v_standby](const circuit::Variation6T& var) {
    return criteria_->hold_metric_6t(var, v_standby);
  };
  return fixed_estimate(LimitState<Cell6T, decltype(fails)>{*sampler_, fails},
                        opts_, seed, seed ^ 0xfeedull);
}

RateEstimate FailureAnalyzer::estimate_6t(Mechanism m, double vdd,
                                          std::uint64_t mc_seed,
                                          std::uint64_t is_seed) const {
  return estimate(mechanism<Cell6T>(*criteria_, *sampler_, m, vdd), opts_,
                  mc_seed, is_seed);
}

RateEstimate FailureAnalyzer::estimate_8t(Mechanism m, double vdd,
                                          std::uint64_t mc_seed,
                                          std::uint64_t is_seed) const {
  return estimate(mechanism<Cell8T>(*criteria_, *sampler_, m, vdd), opts_,
                  mc_seed, is_seed);
}

RateEstimate FailureAnalyzer::adaptive_6t(Mechanism m, double vdd,
                                          std::uint64_t mc_seed,
                                          std::uint64_t is_seed) const {
  return adaptive_estimate(mechanism<Cell6T>(*criteria_, *sampler_, m, vdd),
                           opts_, mc_seed, is_seed);
}

RateEstimate FailureAnalyzer::adaptive_8t(Mechanism m, double vdd,
                                          std::uint64_t mc_seed,
                                          std::uint64_t is_seed) const {
  return adaptive_estimate(mechanism<Cell8T>(*criteria_, *sampler_, m, vdd),
                           opts_, mc_seed, is_seed);
}

CellFailureRates FailureAnalyzer::analyze_6t(double vdd,
                                             std::uint64_t seed) const {
  return analyze(*this, false, vdd, seed);
}

CellFailureRates FailureAnalyzer::analyze_8t(double vdd,
                                             std::uint64_t seed) const {
  return analyze(*this, true, vdd, seed);
}

}  // namespace hynapse::mc
