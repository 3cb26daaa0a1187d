// Measured single-core float peak for the GEMM roofline: independent
// multiply-then-add chains in vector registers at the widest ISA the CPU
// offers. Compiled with -ffp-contract=off (see CMakeLists.txt) so the
// multiply and add stay separate instructions, like the simd GEMM backend,
// which excludes FMA to stay bit-identical to the reference kernels.
#include <chrono>
#include <cstddef>

#include "peak.hpp"

namespace perfbench {

namespace {

constexpr int kChains = 12;

template <typename V>
[[gnu::always_inline]] inline double run_chains(std::size_t iters, float seed) {
  V acc[kChains];
  V mul;
  V add;
  for (std::size_t l = 0; l < sizeof(V) / sizeof(float); ++l) {
    mul[l] = 0.999999f;
    add[l] = seed * 1e-7f;
  }
  for (int c = 0; c < kChains; ++c) acc[c] = add * static_cast<float>(c + 1);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = acc[c] * mul;
      acc[c] = acc[c] + add;
    }
  }
  float sum = 0.0f;
  for (int c = 0; c < kChains; ++c) {
    for (std::size_t l = 0; l < sizeof(V) / sizeof(float); ++l) sum += acc[c][l];
  }
  return static_cast<double>(sum);
}

using V4 = float __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));
using V16 = float __attribute__((vector_size(64)));

double chains_sse(std::size_t iters, float seed) {
  return run_chains<V4>(iters, seed);
}
#if defined(__x86_64__)
[[gnu::target("avx2")]] double chains_avx2(std::size_t iters, float seed) {
  return run_chains<V8>(iters, seed);
}
[[gnu::target("avx512f")]] double chains_avx512(std::size_t iters,
                                                float seed) {
  return run_chains<V16>(iters, seed);
}
#endif

}  // namespace

PeakResult measured_peak_gflops() {
  using Clock = std::chrono::steady_clock;
  double (*chains)(std::size_t, float) = chains_sse;
  std::size_t lanes = 4;
  const char* isa = "sse";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    chains = chains_avx512;
    lanes = 16;
    isa = "avx512f";
  } else if (__builtin_cpu_supports("avx2")) {
    chains = chains_avx2;
    lanes = 8;
    isa = "avx2";
  }
#endif
  constexpr std::size_t kIters = 2'000'000;
  double best = 0.0;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sink += chains(kIters, static_cast<float>(rep + 1));
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double flops = 2.0 * kChains * static_cast<double>(lanes * kIters);
    if (s > 0.0 && flops / s > best) best = flops / s;
  }
  return PeakResult{1e-9 * best, isa, sink};
}

}  // namespace perfbench
