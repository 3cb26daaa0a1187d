// serve_mixed: two loopback TCP connections to an in-process TcpServer in
// front of an EvalService (2 dispatchers, in-memory table cache, no journal,
// no admission control, 48-image slice). Each connection keeps a fixed
// window of generated requests in flight: evaluates over 4 configs x 7
// voltages against 4 warm tables, every 10th a 2x2 sweep, every 16th a
// never-seen table seed at 300 samples (a cache miss and a small build).
// Set-up pre-builds the warm tables, so the cold share sets p99 in every
// run instead of a start-up burst.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "engine/experiment_runner.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "serve/eval_service.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSlice = 48;
constexpr std::size_t kWindow = 4;  ///< requests in flight per connection

/// An answer's identity: (config, vdd, table seed, samples).
using AnswerKey = std::tuple<std::string, double, std::uint64_t, std::size_t>;

struct Fixture {
  std::unique_ptr<core::QuantizedNetwork> qnet;
  data::Dataset slice;
  std::unique_ptr<serve::EvalService> service;
  std::unique_ptr<serve::TcpServer> server;  // after service: stops first
};

serve::Request to_request(const ServeOp& op, const std::string& tag) {
  serve::Request r;
  r.kind = op.kind == ServeKind::sweep ? serve::RequestKind::sweep
                                       : serve::RequestKind::evaluate;
  for (const std::string& c : op.configs) {
    r.configs.push_back(*serve::ConfigSpec::parse(c));
  }
  r.vdds = op.vdds;
  r.chips = kServeChips;
  r.table_seed = op.table_seed;
  r.mc_samples = op.mc_samples;
  r.tag = tag;
  return r;
}

std::unique_ptr<Fixture> make_fixture(std::uint64_t seed, const ann::Mlp& net,
                                      const data::Dataset& test) {
  auto f = std::make_unique<Fixture>();
  f->qnet = std::make_unique<core::QuantizedNetwork>(net);
  f->slice = test_slice(test, seed, kSlice);
  serve::ServiceOptions so;
  // Each dispatcher's batches run on it and at most one pool worker
  // (threads = kThreadCap). Interleaved runs against 1 thread per
  // dispatcher, which keeps the pool idle, were no less steady.
  so.dispatchers = 2;
  so.threads = kThreadCap;
  so.default_chips = kServeChips;
  so.default_samples = 4000;
  so.default_eval_seed = serve_eval_seed(seed);
  f->service = std::make_unique<serve::EvalService>(*f->qnet, f->slice, so);
  std::vector<std::uint64_t> ids;
  for (std::size_t k = 0; k < kWarmTables; ++k) {
    ServeOp warm;
    warm.configs = {"all6t"};
    warm.vdds = {grid_vdd(0)};
    warm.table_seed = warm_table_seed(k);
    ids.push_back(f->service->submit(to_request(warm, "warm")));
  }
  for (const std::uint64_t id : ids) {
    if (f->service->wait(id).status != serve::RequestStatus::done) {
      throw std::runtime_error{"warm table build failed"};
    }
  }
  serve::TcpServerOptions to;
  to.session.per_chip = true;  // answers are checked bit for bit
  f->server = std::make_unique<serve::TcpServer>(*f->service, to);
  return f;
}

/// Everything one connection observed.
struct ConnectionLog {
  Outcome outcome;
  std::vector<double> queue_ms, table_ms, run_ms, transport_ms;
  double batch_size_sum = 0.0;
  double coalesced = 0.0;
  std::map<AnswerKey, core::AccuracyResult> answers;
  bool answer_changed = false;
};

void run_connection(std::uint16_t port, std::size_t conn,
                    std::chrono::steady_clock::time_point deadline,
                    Tracer* tracer, RssMark* rss, ConnectionLog& log) {
  using Clock = std::chrono::steady_clock;
  std::optional<serve::TcpClient> client =
      serve::TcpClient::connect("127.0.0.1", port);
  if (!client) throw std::runtime_error{"cannot connect"};
  struct InFlight {
    Clock::time_point sent;
    std::int64_t span = -1;
    std::uint64_t request = 0;
    std::size_t points = 0;
  };
  std::unordered_map<std::string, InFlight> in_flight;
  std::size_t k = 0;
  const auto send_next = [&] {
    const std::uint64_t request = (std::uint64_t{conn} + 1) << 32 | k;
    const std::string tag = std::to_string(k);
    const ServeOp op = serve_op(conn, k++);
    InFlight f;
    f.request = request;
    f.span = tracer != nullptr ? tracer->open("bench.op", -1, request) : -1;
    f.points = op.configs.size() * op.vdds.size();
    f.sent = Clock::now();
    std::string line;
    {
      const Scope s{tracer, "serve.format_request", f.span, request};
      line = serve::format_request(to_request(op, tag));
    }
    ++log.outcome.attempted;
    if (!client->send_line(line)) {
      ++log.outcome.failed;
      if (tracer != nullptr) tracer->close(f.span);
      return;
    }
    in_flight.emplace(tag, f);
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kWindow; ++i) send_next();
  while (!in_flight.empty()) {
    const std::optional<std::string> line = client->read_line(30.0);
    if (!line) break;  // the in-flight requests are counted failed below
    const std::int64_t parse_start = tracer != nullptr ? tracer->now_ns() : 0;
    const std::optional<serve::Response> resp =
        serve::parse_response(*line, nullptr);
    const auto it = resp ? in_flight.find(resp->tag) : in_flight.end();
    if (it == in_flight.end()) {
      // An answer to a request it cannot name (a line the server could not
      // parse carries no tag): retire the oldest request as failed.
      in_flight.erase(std::min_element(
          in_flight.begin(), in_flight.end(),
          [](const auto& a, const auto& b) { return a.second.sent < b.second.sent; }));
      ++log.outcome.failed;
      if (Clock::now() < deadline) send_next();
      continue;
    }
    const InFlight f = it->second;
    in_flight.erase(it);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - f.sent).count();
    if (tracer != nullptr) {
      SpanRecord parse;
      parse.name = "serve.parse_response";
      parse.start_ns = parse_start;
      parse.end_ns = tracer->now_ns();
      parse.parent = f.span;
      parse.request = f.request;
      tracer->add(std::move(parse));
      tracer->close(f.span);
    }
    bool ok = resp->status == serve::RequestStatus::done &&
              resp->results.size() == f.points;
    for (const serve::PointResult& p : resp->results) {
      ok = ok && p.accuracy.per_chip.size() == kServeChips;
    }
    if (!ok) {
      ++log.outcome.failed;
    } else {
      log.outcome.latency_ms.push_back(ms);
      log.outcome.work += 1.0;
      if (rss != nullptr) rss->op_done();
      log.queue_ms.push_back(resp->stats.queue_ms);
      log.table_ms.push_back(resp->stats.table_ms);
      log.run_ms.push_back(resp->stats.run_ms);
      log.transport_ms.push_back(ms - resp->stats.wall_ms);
      log.batch_size_sum += static_cast<double>(resp->stats.batch_size);
      log.coalesced += resp->stats.coalesced ? 1.0 : 0.0;
      const ServeOp op = serve_op(conn, std::stoull(resp->tag));
      for (const serve::PointResult& p : resp->results) {
        const AnswerKey key{p.config, p.vdd, op.table_seed, op.mc_samples};
        const auto [slot, fresh] = log.answers.emplace(key, p.accuracy);
        if (!fresh && !same_accuracy(slot->second, p.accuracy)) {
          log.answer_changed = true;
        }
      }
    }
    if (Clock::now() < deadline) send_next();
  }
  log.outcome.failed += in_flight.size();
  log.outcome.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
}

/// Folds `part` into `into`: outcomes add up (wall time is the longest),
/// samples concatenate, and an answer that differs from an earlier answer
/// to the same key is flagged.
void merge(ConnectionLog& into, const ConnectionLog& part) {
  Outcome& o = into.outcome;
  o.attempted += part.outcome.attempted;
  o.failed += part.outcome.failed;
  o.work += part.outcome.work;
  o.seconds = std::max(o.seconds, part.outcome.seconds);
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(o.latency_ms, part.outcome.latency_ms);
  append(into.queue_ms, part.queue_ms);
  append(into.table_ms, part.table_ms);
  append(into.run_ms, part.run_ms);
  append(into.transport_ms, part.transport_ms);
  into.batch_size_sum += part.batch_size_sum;
  into.coalesced += part.coalesced;
  into.answer_changed = into.answer_changed || part.answer_changed;
  for (const auto& [key, acc] : part.answers) {
    const auto [slot, fresh] = into.answers.emplace(key, acc);
    if (!fresh && !same_accuracy(slot->second, acc)) into.answer_changed = true;
  }
}

/// Runs both connections for `seconds`; merges their logs. `rss`, when
/// non-null, counts every answered request.
ConnectionLog serve_loop(const Fixture& fx, double seconds, Tracer* tracer,
                         RssMark* rss) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>{seconds});
  std::vector<ConnectionLog> logs(kThreadCap);
  std::vector<std::string> errors(kThreadCap);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kThreadCap; ++c) {
      clients.emplace_back([&, c] {
        try {
          run_connection(fx.server->port(), c, deadline, tracer, rss, logs[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
          ++logs[c].outcome.failed;
        }
      });
    }
  }
  for (std::size_t c = 0; c < kThreadCap; ++c) {
    if (!errors[c].empty()) std::fprintf(stderr, "connection %zu: %s\n", c, errors[c].c_str());
  }
  ConnectionLog all;
  for (const ConnectionLog& log : logs) merge(all, log);
  return all;
}

/// The table cache's registry counters, for deltas around a loop.
struct CacheCounts {
  double hits = 0.0;
  double builds = 0.0;
  double coalesced = 0.0;
};

CacheCounts cache_counts() {
  obs::Registry& r = obs::Registry::global();
  return CacheCounts{static_cast<double>(r.counter("cache.memory_hits").value()),
                     static_cast<double>(r.counter("cache.builds").value()),
                     static_cast<double>(r.counter("cache.coalesced").value())};
}

/// Runs serve_loop and adds the table cache's counter deltas over it to
/// `cache`.
ConnectionLog counted_loop(const Fixture& fx, double seconds, Tracer* tracer,
                           RssMark* rss, CacheCounts& cache) {
  const CacheCounts before = cache_counts();
  ConnectionLog log = serve_loop(fx, seconds, tracer, rss);
  const CacheCounts after = cache_counts();
  cache.hits += after.hits - before.hits;
  cache.builds += after.builds - before.builds;
  cache.coalesced += after.coalesced - before.coalesced;
  return log;
}

/// serve.* and engine.cache.* metrics of a loop's log.
void serve_layer_metrics(const ConnectionLog& log, const CacheCounts& cache,
                         std::map<std::string, double>& layer) {
  const auto pct = [&](const char* name, const std::vector<double>& v) {
    const LatencySummary s = summarize(v);
    layer[std::string{"serve."} + name + ".p50"] = s.p50;
    layer[std::string{"serve."} + name + ".p99"] = s.p99;
  };
  pct("queue_ms", log.queue_ms);
  pct("table_ms", log.table_ms);
  pct("run_ms", log.run_ms);
  const double n = std::max(1.0, log.outcome.work);
  layer["serve.batch_size.mean"] = log.batch_size_sum / n;
  layer["serve.coalesced_frac"] = log.coalesced / n;
  layer["serve.transport_ms.p50"] = summarize(log.transport_ms).p50;
  layer["engine.cache.memory_hits"] = cache.hits;
  layer["engine.cache.builds"] = cache.builds;
  layer["engine.cache.coalesced"] = cache.coalesced;
  layer["engine.cache.hit_ratio"] =
      cache.hits + cache.builds > 0.0 ? cache.hits / (cache.hits + cache.builds)
                                      : 0.0;
}

/// The table a key's answer was computed against, rebuilt from scratch.
mc::FailureTable rebuild_table(const serve::EvalService& service,
                               const AnswerKey& key) {
  serve::Request r;
  r.table_seed = std::get<2>(key);
  r.mc_samples = std::get<3>(key);
  const CircuitStack stack;
  // Any thread count gives the same table; rebuild at the cap.
  mc::AnalyzerOptions ao = service.analyzer_options(r);
  ao.threads = kThreadCap;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, ao};
  return mc::FailureTable::build(analyzer, service.table_spec(r).vdd_grid,
                                 service.table_spec(r).seed);
}

/// Cold answers checked per run: each costs a fresh small table build, so
/// an evenly spaced sample of them is checked (every warm answer is).
constexpr std::size_t kColdChecks = 16;

void check_answers(const Fixture& fx, std::uint64_t seed,
                   const ConnectionLog& log, Checks& checks,
                   std::map<std::uint64_t, mc::FailureTable>& tables) {
  checks.require(!log.answer_changed, "a serve_mixed answer changed between requests");
  std::vector<const std::pair<const AnswerKey, core::AccuracyResult>*> cold;
  for (const auto& entry : log.answers) {
    if (std::get<3>(entry.first) != 0) cold.push_back(&entry);
  }
  const std::size_t stride = std::max<std::size_t>(1, (cold.size() + kColdChecks - 1) / kColdChecks);
  std::vector<const std::pair<const AnswerKey, core::AccuracyResult>*> todo;
  for (const auto& entry : log.answers) {
    if (std::get<3>(entry.first) == 0) todo.push_back(&entry);
  }
  for (std::size_t i = 0; i < cold.size(); i += stride) todo.push_back(cold[i]);
  const engine::ExperimentRunner runner{kThreadCap};
  const std::vector<std::size_t> words = fx.qnet->bank_words();
  std::size_t matched = 0;
  for (const auto* entry : todo) {
    const AnswerKey& key = entry->first;
    auto it = tables.find(std::get<2>(key));
    if (it == tables.end()) {
      it = tables.emplace(std::get<2>(key), rebuild_table(*fx.service, key)).first;
    }
    core::EvalOptions opts;
    opts.chips = kServeChips;
    opts.seed = serve_eval_seed(seed);
    opts.threads = kThreadCap;
    const core::AccuracyResult expected = runner.evaluate(
        *fx.qnet, serve::ConfigSpec::parse(std::get<0>(key))->materialize(words),
        it->second, std::get<1>(key), fx.slice, opts);
    matched += same_accuracy(expected, entry->second) ? 1 : 0;
  }
  checks.require(matched == todo.size(),
                 std::to_string(todo.size() - matched) + " of " +
                     std::to_string(todo.size()) +
                     " serve_mixed answers differ from ExperimentRunner::evaluate");
}

}  // namespace

WorkloadResult run_serve_mixed(const RunSpec& spec, Tracer* tracer) {
  WorkloadResult res;
  const data::Dataset test = table1_test_set();
  // An untrained Table-I net: what a request costs (GEMMs, fault
  // application, table builds) does not depend on the weights' values, and
  // skipping training keeps the run inside the benchmark's time budget.
  const ann::Mlp net{core::table1_layer_sizes(), 1, ann::Activation::tanh_lecun};
  std::unique_ptr<Fixture> fx =
      timed_setups(spec.setups, res.setup_s,
                   [&] { return make_fixture(spec.seed, net, test); });

  CacheCounts cache;
  ConnectionLog log;
  // Well below the ~6000 requests of a 37 s run.
  RssMark rss{2000};
  res.outcome = measure(
      spec, tracer, res.layer,
      [&](double s, Tracer* t) {
        const ConnectionLog part = counted_loop(*fx, s, t, &rss, cache);
        merge(log, part);
        return part.outcome;
      },
      // Every loop of a traced run replays the same stream: each needs a
      // fresh service, or its cold tables would already be cached.
      [&] { fx = make_fixture(spec.seed, net, test); });
  res.peak_rss_mb = rss.mb();

  std::map<std::uint64_t, mc::FailureTable> tables;
  check_answers(*fx, spec.seed, log, res.checks, tables);

  if (tracer != nullptr) {
    serve_layer_metrics(log, cache, res.layer);
    ChipAnatomy anatomy{*fx->qnet, fx->slice};
    const double clean = anatomy.baseline_accuracy();
    const std::uint64_t warm = warm_table_seed(0);
    auto it = tables.find(warm);
    if (it == tables.end()) {
      it = tables.emplace(warm, rebuild_table(*fx->service, AnswerKey{"", 0.0, warm, 0})).first;
    }
    const std::vector<std::size_t> words = fx->qnet->bank_words();
    const std::size_t points = kServeConfigs * kGridPoints;
    for (std::size_t i = 0; i < points; ++i) {
      const ServeOp op = serve_op(0, i);
      const Scope root{tracer, "anatomy", -1, i + 1};
      const core::FaultModel model{it->second, op.vdds[0]};
      const double replayed = anatomy.replay(
          *tracer, root.id(), i + 1,
          serve::ConfigSpec::parse(op.configs[0])->materialize(words), model,
          serve_eval_seed(spec.seed), kServeChips);
      res.checks.require(replayed == clean,
                         "anatomy forward replay differs from Mlp::accuracy");
    }
  }
  return res;
}

void serve_probe(std::uint64_t seed, double seconds,
                 std::map<std::string, double>& layer) {
  const data::Dataset test = table1_test_set();
  const ann::Mlp net{core::table1_layer_sizes(), 1, ann::Activation::tanh_lecun};
  const std::unique_ptr<Fixture> fx = make_fixture(seed, net, test);
  CacheCounts cache;
  const ConnectionLog log = counted_loop(*fx, seconds, nullptr, nullptr, cache);
  serve_layer_metrics(log, cache, layer);
}

}  // namespace perfbench
