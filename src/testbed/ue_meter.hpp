// Where and when one UE's traffic is counted (§5.4, §7.2): the traffic
// factories and the metering policy every simulated UE runs, whether it
// is the single app device of `Testbed` or one member of a fleet shard.
//
// `UeMeter` owns the counting points (ground truth at the two app
// endpoints, the SPGW gateway counter for the app's direction, and the
// operator's far-side view: RRC COUNTER CHECK reports when enabled, else
// the tamperable TrafficStats API), the clamped clock-skew boundary
// schedule with its counter-check lead, and the per-cycle read-out.
// Randomness comes only from the `Rng` the owner passes in, forked in a
// fixed order, so the owner decides where in its own draw sequence the
// meter sits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "charging/monitors.hpp"
#include "charging/sampler.hpp"
#include "epc/enodeb.hpp"
#include "epc/spgw.hpp"
#include "epc/ue.hpp"
#include "sim/simulator.hpp"
#include "testbed/edge_server.hpp"
#include "testbed/scenario.hpp"
#include "workloads/source.hpp"

namespace tlc::testbed {

/// Everything measured for one charging cycle.
struct CycleMeasurements {
  // Ground truth at exact nominal boundaries.
  std::uint64_t true_sent = 0;      // x̂e
  std::uint64_t true_received = 0;  // x̂o
  // Edge vendor's sampled view (its own clock).
  std::uint64_t edge_sent = 0;
  std::uint64_t edge_received = 0;
  // Operator's sampled view (its own clock; received/sent side via RRC
  // COUNTER CHECK or the gateway depending on direction).
  std::uint64_t op_sent = 0;
  std::uint64_t op_received = 0;
  // What the legacy 4G/5G bill would be based on (the gateway CDR for
  // the app's direction).
  std::uint64_t gateway_volume = 0;
};

/// Simulated time the single-UE testbed keeps running past the last
/// nominal boundary, so every skewed snapshot has fired.
inline constexpr SimTime kBoundaryGrace = 50 * kSecond;

/// Largest clock-skew offset a boundary can land away from its nominal
/// time: a sample must not drift into a neighbouring cycle entirely.
[[nodiscard]] SimTime max_boundary_offset(SimTime cycle_length);

/// Builds the cell's iperf-like background source at `rate_mbps`:
/// uplink traffic leaves `device`, downlink enters at the gateway
/// towards `imsi`. Takes one fork of `rng`.
[[nodiscard]] std::unique_ptr<workloads::TrafficSource> make_background_source(
    sim::Simulator& sim, sim::Direction direction, double rate_mbps,
    std::uint32_t flow_id, epc::Imsi imsi, epc::UeDevice& device,
    epc::Spgw& spgw, Rng& rng);

/// Builds the app's workload source for `scenario` on `flow_id`:
/// uplink traffic leaves through `device`, downlink through `server`
/// towards `imsi`. A trace replay draws nothing; every generative
/// model takes one fork of `rng`.
[[nodiscard]] std::unique_ptr<workloads::TrafficSource> make_app_source(
    sim::Simulator& sim, const ScenarioConfig& scenario, std::uint32_t flow_id,
    epc::Imsi imsi, epc::UeDevice& device, EdgeServer& server, Rng& rng);

/// One UE's counting points and cycle samplers. Every referenced
/// component must outlive the meter.
class UeMeter {
 public:
  /// `meter_uncharged` adds a sampler of the gateway's §13 uncharged
  /// counter at the operator's boundaries; it forks `rng` once more,
  /// after every other draw, so metering it perturbs nothing else.
  UeMeter(sim::Simulator& sim, const ScenarioConfig& scenario, epc::Imsi imsi,
          epc::UeDevice& device, EdgeServer& server, epc::Spgw& spgw,
          Rng& rng, bool meter_uncharged = false);
  UeMeter(const UeMeter&) = delete;
  UeMeter& operator=(const UeMeter&) = delete;

  /// Feeds one COUNTER CHECK response for this UE to the operator's
  /// tamper-resilient monitors.
  void on_counter_check(std::uint64_t ul, std::uint64_t dl, SimTime at);

  /// Schedules every boundary snapshot of scenario.cycles cycles and,
  /// when counter checks are on, the requests `enodeb` answers.
  void schedule_boundaries(epc::EnodeB& enodeb);

  /// Per-cycle volumes; valid once the simulation ran past the last
  /// boundary.
  [[nodiscard]] std::vector<CycleMeasurements> cycles() const;

  /// Uncharged volume per cycle (all zero unless metered).
  [[nodiscard]] std::vector<std::uint64_t> uncharged_per_cycle() const;

 private:
  const charging::UsageMonitor& add_monitor(
      std::string name, std::function<std::uint64_t()> reader);

  sim::Simulator& sim_;
  const ScenarioConfig& scenario_;
  epc::Imsi imsi_;

  // Operator's tamper-resilient monitors (fed by COUNTER CHECK).
  charging::RrcCounterMonitor rrc_ul_{
      charging::RrcCounterMonitor::Track::Uplink};
  charging::RrcCounterMonitor rrc_dl_{
      charging::RrcCounterMonitor::Track::Downlink};
  std::vector<std::unique_ptr<charging::UsageMonitor>> monitors_;

  std::unique_ptr<charging::CycleSampler> true_sent_;
  std::unique_ptr<charging::CycleSampler> true_received_;
  std::unique_ptr<charging::CycleSampler> edge_sent_;
  std::unique_ptr<charging::CycleSampler> edge_received_;
  std::unique_ptr<charging::CycleSampler> op_sent_;
  std::unique_ptr<charging::CycleSampler> op_received_;
  std::unique_ptr<charging::CycleSampler> gateway_;
  std::unique_ptr<charging::CycleSampler> uncharged_;
  Rng edge_clock_rng_{0};
  Rng op_clock_rng_{0};
};

}  // namespace tlc::testbed
