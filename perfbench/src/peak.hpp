#pragma once

namespace perfbench {

struct PeakResult {
  double gflops = 0.0;  ///< best of 5 single-thread runs
  const char* isa = "";
  double sink = 0.0;  ///< keeps the chains observable
};

/// Single-core multiply+add peak (no FMA) at the widest vector ISA the CPU
/// supports, in GFLOP/s.
[[nodiscard]] PeakResult measured_peak_gflops();

}  // namespace perfbench
