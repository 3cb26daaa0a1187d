// hynapse pipeline benchmark.
//
//   perfbench --workload table_build|paper_sweep|serve_mixed --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics (set-up time, peak RSS, p50/p99
// op latency, throughput); --trace 1 prints the per-layer metrics of a
// traced run and writes its spans as Chrome trace-event JSON under
// .bench_work/. Either way the last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics, and the correctness
// checks run outside the timed region. Run from the checkout root: the
// per-run cache (HYNAPSE_CACHE_DIR) and the traces live in .bench_work/.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ann/backends/backend.hpp"
#include "ann/backends/kernels_detail.hpp"
#include "pipeline.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::kThreadCap;

struct Metric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, with its unit.
constexpr Metric kPerLayer[] = {
    {"circuit.evals_per_s.6t_read_access", "1/s"},
    {"circuit.evals_per_s.6t_write", "1/s"},
    {"circuit.evals_per_s.6t_read_disturb", "1/s"},
    {"circuit.evals_per_s.8t_read_access", "1/s"},
    {"circuit.evals_per_s.8t_write", "1/s"},
    {"mc.plain_samples_per_s", "1/s"},
    {"mc.is_samples_per_s", "1/s"},
    {"mc.thread_efficiency", "ratio"},
    {"mc.samples_per_estimate", "count"},
    {"mc.is_fallback_frac", "ratio"},
    {"mc.table_build_s", "s"},
    {"quant.quantize_ms", "ms"},
    {"core.fault_apply_ms_per_chip.0.65", "ms"},
    {"core.fault_apply_ms_per_chip.0.80", "ms"},
    {"core.fault_apply_ms_per_chip.0.95", "ms"},
    {"core.deltas_per_chip.0.65", "count"},
    {"core.deltas_per_chip.0.80", "count"},
    {"core.deltas_per_chip.0.95", "count"},
    {"ann.gemm_gflops.reference.l1", "GFLOP/s"},
    {"ann.gemm_gflops.reference.l2", "GFLOP/s"},
    {"ann.gemm_gflops.reference.l3", "GFLOP/s"},
    {"ann.gemm_gflops.simd.l1", "GFLOP/s"},
    {"ann.gemm_gflops.simd.l2", "GFLOP/s"},
    {"ann.gemm_gflops.simd.l3", "GFLOP/s"},
    {"ann.peak_gflops", "GFLOP/s"},
    {"ann.gemm_peak_frac.simd.l1", "ratio"},
    {"ann.forward_us_per_image", "us"},
    {"engine.chips_per_s", "1/s"},
    {"engine.fuse_gain", "ratio"},
    {"engine.cache.memory_hits", "count"},
    {"engine.cache.builds", "count"},
    {"engine.cache.coalesced", "count"},
    {"engine.cache.hit_ratio", "ratio"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.table_ms.p50", "ms"},
    {"serve.table_ms.p99", "ms"},
    {"serve.run_ms.p50", "ms"},
    {"serve.run_ms.p99", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.codec_us.format_request", "us"},
    {"serve.codec_us.parse_request", "us"},
    {"serve.codec_us.format_response", "us"},
    {"serve.codec_us.parse_response", "us"},
    {"serve.transport_ms.p50", "ms"},
    {"util.pool.jobs_run", "count"},
    {"util.pool.busy_s", "s"},
    {"util.pool.lock_contended", "count"},
    {"util.pool.utilization", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
    {"trace.self_frac.circuit", "ratio"},
    {"trace.self_frac.mc", "ratio"},
    {"trace.self_frac.core", "ratio"},
    {"trace.self_frac.ann", "ratio"},
    {"trace.self_frac.ann.gemm", "ratio"},
    {"trace.self_frac.ann.activate", "ratio"},
};

/// Layers, and spans within them, whose share of the anatomy's self time
/// is reported: the forward pass splits into GEMM and bias + activation.
constexpr const char* kSelfFracParts[] = {"circuit", "mc",       "core",
                                          "ann",     "ann.gemm", "ann.activate"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "table_build|paper_sweep|serve_mixed --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {};
  const auto number = [](const char* s, const char* flag) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(v >= 0.0)) usage(flag);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(number(value, "bad --seed"));
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = number(value, "bad --seconds");
      have[2] = true;
    } else if (flag == "--trace") {
      const double t = number(value, "bad --trace");
      if (t != 0.0 && t != 1.0) usage("--trace takes 0 or 1");
      a.traced = t == 1.0;
      have[3] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (const bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.workload != "table_build" && a.workload != "paper_sweep" &&
      a.workload != "serve_mixed") {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string backend_tier() {
  namespace be = hynapse::ann::backends;
  const be::Backend b = be::default_backend();
  if (b == be::Backend::simd) {
    return be::detail::simd512_kernel_ops() != nullptr ? "simd/avx512f"
                                                       : "simd/avx2";
  }
  return "reference";
}

/// One-line record of what produced the numbers, printed with every result.
void print_env(const Args& args) {
  std::printf(
      "env {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"backend\": \"%s\", \"thread_cap\": %zu, "
      "\"pool_workers\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_BUILD_TYPE, backend_tier().c_str(), kThreadCap,
      hynapse::util::ThreadPool::shared().worker_count(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.traced ? 1 : 0);
}

/// Self time per layer, and per span name within it, under each root.
void print_self_times(const std::vector<perfbench::SpanRecord>& spans) {
  for (const char* root : {"bench.op", "anatomy", "probe"}) {
    const std::map<std::string, double> by_name =
        perfbench::span_self_seconds(spans, root);
    const std::map<std::string, double> by_layer =
        perfbench::layer_self_seconds(spans, root);
    double total = 0.0;
    for (const auto& [layer, s] : by_layer) total += s;
    if (total <= 0.0) continue;
    std::printf("self time under \"%s\" spans (%.3f s):\n", root, total);
    for (const auto& [layer, s] : by_layer) {
      std::printf("  %-26s %9.3f s  %5.1f %%\n", layer.c_str(), s,
                  100.0 * s / total);
      for (const auto& [name, ns] : by_name) {
        if (perfbench::layer_of(name) != layer || name == layer) continue;
        std::printf("    %-24s %9.3f s  %5.1f %%\n", name.c_str(), ns,
                    100.0 * ns / total);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // glibc raises its mmap threshold to the size of each large block freed,
  // after which large buffers live in per-thread arenas whose retained free
  // space depends on which thread ran what: peak_rss_mb took one of several
  // values from run to run. A fixed threshold (glibc's default) keeps every
  // large buffer mmapped, so the resident set follows the live buffers.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // Before any library call: a per-run cache dir, so nothing an earlier run
  // left behind (a trained model, a table CSV) can shortcut this run's
  // set-up, and nothing is written outside the work dir.
  const std::filesystem::path work = std::filesystem::current_path() / ".bench_work";
  const std::filesystem::path run_dir =
      work / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(run_dir / "cache");
  const struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{run_dir};
  ::setenv("HYNAPSE_CACHE_DIR", (run_dir / "cache").c_str(), 1);
  hynapse::util::set_default_thread_count(kThreadCap);
  namespace be = hynapse::ann::backends;
  be::set_default_backend(be::simd_compiled() ? be::Backend::simd
                                              : be::Backend::reference);
  print_env(args);

  perfbench::RunSpec spec;
  spec.seed = args.seed;
  spec.seconds = args.seconds;
  spec.setups = args.traced ? 1 : 3;
  perfbench::Tracer tracer;
  perfbench::Tracer* t = args.traced ? &tracer : nullptr;

  perfbench::WorkloadResult res;
  if (args.workload == "table_build") {
    res = perfbench::run_table_build(spec, t);
  } else if (args.workload == "paper_sweep") {
    res = perfbench::run_paper_sweep(spec, t);
  } else {
    res = perfbench::run_serve_mixed(spec, t);
  }
  const perfbench::Outcome& o = res.outcome;
  res.checks.require(o.failed == 0, std::to_string(o.failed) + " ops failed");

  std::vector<std::pair<const Metric*, double>> out;
  if (!args.traced) {
    const perfbench::LatencySummary lat = perfbench::summarize(o.latency_ms);
    static constexpr Metric kEndToEnd[] = {{"setup_s", "s"},
                                           {"peak_rss_mb", "MB"},
                                           {"latency_p50_ms", "ms"},
                                           {"latency_p99_ms", "ms"},
                                           {"throughput_per_s", "1/s"}};
    const double values[] = {perfbench::median(res.setup_s), res.peak_rss_mb,
                             lat.p50, lat.p99, o.work / o.seconds};
    for (std::size_t i = 0; i < 5; ++i) out.emplace_back(&kEndToEnd[i], values[i]);
    std::printf("set-up repetitions (s):");
    for (const double s : res.setup_s) std::printf(" %.4f", s);
    std::printf("\nlatency over %zu ops: p99 has %zu samples beyond it\n",
                lat.n, lat.beyond_p99);
  } else {
    perfbench::run_probes(args.seed, tracer, res.layer);
    const std::vector<perfbench::SpanRecord> spans = tracer.spans();
    // Layer names have no '.', span names do: one map holds both.
    std::map<std::string, double> anatomy =
        perfbench::layer_self_seconds(spans, "anatomy");
    double total = 0.0;
    for (const auto& [layer, s] : anatomy) total += s;
    anatomy.merge(perfbench::span_self_seconds(spans, "anatomy"));
    for (const char* part : kSelfFracParts) {
      const auto it = anatomy.find(part);
      res.layer[std::string{"trace.self_frac."} + part] =
          it == anatomy.end() || total <= 0.0 ? 0.0 : it->second / total;
    }
    print_self_times(spans);
    const std::filesystem::path trace_path =
        work / ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
                ".json");
    res.checks.require(tracer.write_chrome_json(trace_path.string()),
                       "cannot write " + trace_path.string());
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
    for (const Metric& m : kPerLayer) {
      const auto it = res.layer.find(m.name);
      if (it == res.layer.end()) {
        std::fprintf(stderr, "error: per-layer metric %s was not measured\n", m.name);
        return 1;
      }
      out.emplace_back(&m, it->second);
    }
  }
  for (auto& [m, v] : out) {
    if (!std::isfinite(v)) {
      res.checks.require(false, std::string{m->name} + " is not finite");
      v = 0.0;
    }
  }

  for (const auto& [m, v] : out) std::printf("%-40s %.6g %s\n", m->name, v, m->unit);
  std::printf("checks: %zu passed, %zu failed\n", res.checks.passed,
              res.checks.failures.size());
  for (const std::string& f : res.checks.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += res.checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", out[i].second);
    json += (i == 0 ? "\"" : ", \"") + std::string{out[i].first->name} +
            "\": {\"value\": " + buf + ", \"unit\": \"" + out[i].first->unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
