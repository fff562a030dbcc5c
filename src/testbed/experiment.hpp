// Experiment harness: runs the testbed and evaluates charging schemes.
//
// One testbed run produces per-cycle measurements; each scheme (legacy
// 4G/5G, TLC-optimal, TLC-random — the §7.1 comparison set) is then
// evaluated on those measurements, yielding the paper's metrics:
// absolute gap ∆ = |x − x̂| (scaled to MB/hr), relative ratio ε = ∆/x̂,
// and negotiation rounds.
#pragma once

#include <map>
#include <vector>

#include "core/negotiation.hpp"
#include "testbed/scenario.hpp"
#include "testbed/testbed.hpp"

namespace tlc::testbed {

enum class Scheme { Legacy, TlcOptimal, TlcRandom };

[[nodiscard]] const char* scheme_name(Scheme scheme);

struct CycleOutcome {
  std::uint64_t expected = 0;  // x̂ from ground truth
  std::uint64_t charged = 0;   // x under the scheme
  double gap_mb = 0.0;         // ∆ for this cycle, MB
  double gap_mb_per_hr = 0.0;  // ∆ scaled to the paper's hourly cycles
  double gap_ratio = 0.0;      // ε
  int rounds = 0;              // negotiation rounds (0 for legacy)
  bool completed = true;
};

/// Evaluates one scheme on one cycle's measurements.
[[nodiscard]] CycleOutcome evaluate_scheme(const CycleMeasurements& cycle,
                                           Scheme scheme, double c,
                                           SimTime cycle_length, Rng& rng);

/// Evaluates each scheme on every cycle, scheme by scheme, all drawing
/// from `rng`.
[[nodiscard]] std::map<Scheme, std::vector<CycleOutcome>> evaluate_schemes(
    const std::vector<CycleMeasurements>& cycles,
    const std::vector<Scheme>& schemes, double c, SimTime cycle_length,
    Rng& rng);

struct ExperimentResult {
  ScenarioConfig config;
  std::vector<CycleMeasurements> cycles;
  std::map<Scheme, std::vector<CycleOutcome>> outcomes;

  [[nodiscard]] double mean_gap_mb_per_hr(Scheme scheme) const;
  [[nodiscard]] double mean_gap_ratio(Scheme scheme) const;
  [[nodiscard]] double mean_rounds(Scheme scheme) const;
};

/// Runs the scenario once and evaluates all requested schemes.
[[nodiscard]] ExperimentResult run_experiment(
    const ScenarioConfig& config,
    const std::vector<Scheme>& schemes = {Scheme::Legacy, Scheme::TlcOptimal,
                                          Scheme::TlcRandom});

}  // namespace tlc::testbed
