// The per-mechanism seed schedule shared by FailureAnalyzer::analyze_6t/
// analyze_8t and FailureTable::build. Each (cell, mechanism) estimate at one
// voltage draws its plain-MC and importance-sampling streams from the
// caller's base seed plus fixed offsets. Cached tables and served answers
// are reproduced from these streams, so the offsets never change.
#pragma once

#include <cstdint>

#include "mc/montecarlo.hpp"

namespace hynapse::mc {

struct ScheduledEstimate {
  bool cell8;
  Mechanism mechanism;
  std::uint64_t mc_offset;
  std::uint64_t is_offset;
  RateEstimate CellFailureRates::*rate;  ///< where analyze_* stores it
};

/// In FailureTable::build's slot order.
inline constexpr ScheduledEstimate kSeedSchedule[] = {
    {false, Mechanism::read_access, 0, 777, &CellFailureRates::read_access},
    {false, Mechanism::write, 101, 778, &CellFailureRates::write_fail},
    {false, Mechanism::read_disturb, 202, 779, &CellFailureRates::read_disturb},
    {true, Mechanism::read_access, 0, 555, &CellFailureRates::read_access},
    {true, Mechanism::write, 131, 556, &CellFailureRates::write_fail},
};

/// Runs one scheduled estimate at vdd from the base seed.
inline RateEstimate run_scheduled(const FailureAnalyzer& analyzer,
                                  const ScheduledEstimate& job, double vdd,
                                  std::uint64_t seed) {
  const std::uint64_t mc_seed = seed + job.mc_offset;
  const std::uint64_t is_seed = seed + job.is_offset;
  return job.cell8
             ? analyzer.estimate_8t(job.mechanism, vdd, mc_seed, is_seed)
             : analyzer.estimate_6t(job.mechanism, vdd, mc_seed, is_seed);
}

}  // namespace hynapse::mc
