// The emulated testbed of §7 / Figure 11: one `Cell` serving the
// metered application device and a second phone absorbing iperf
// background traffic.
//
// The testbed draws its whole world from one `Rng` fork chain rooted at
// the scenario seed, and adds what only it records: a Fig 4 timeline,
// RTT probes and the measured disconnectivity ratio. `run()` drives the
// configured number of charging cycles and returns, per cycle, the
// ground-truth volumes and each party's sampled measurements —
// everything the charging schemes (legacy / TLC) need.
#pragma once

#include <vector>

#include "testbed/cell.hpp"
#include "testbed/scenario.hpp"
#include "testbed/ue_meter.hpp"

namespace tlc::testbed {

/// One sample of the Fig 4 timeline.
struct TimelinePoint {
  SimTime at = 0;
  double device_rate_mbps = 0.0;   // app-layer goodput at the device side
  double charged_cum_mb = 0.0;     // operator (gateway) cumulative, MB
  double device_cum_mb = 0.0;      // device/server cumulative, MB
  double gap_mb = 0.0;             // charged - device
  double rss_dbm = 0.0;
  bool connected = true;
};

class Testbed {
 public:
  explicit Testbed(ScenarioConfig config);

  /// Record a Fig 4-style timeline at `interval` (call before run()).
  void enable_timeline(SimTime interval = kSecond);

  /// Schedule `count` RTT probes spaced `interval` (call before run()).
  void enable_rtt_probes(int count, SimTime interval = kSecond);

  /// Runs all cycles; idempotent (subsequent calls return cached data).
  const std::vector<CycleMeasurements>& run();

  [[nodiscard]] const std::vector<TimelinePoint>& timeline() const {
    return timeline_;
  }
  [[nodiscard]] const std::vector<double>& rtt_ms() const { return rtt_ms_; }

  // Component access for tests and examples.
  [[nodiscard]] epc::EnodeB& enodeb() { return cell_.enodeb(); }
  [[nodiscard]] epc::Spgw& spgw() { return cell_.spgw(); }
  [[nodiscard]] epc::Mme& mme() { return cell_.mme(); }
  [[nodiscard]] epc::Hss& hss() { return cell_.hss(); }
  [[nodiscard]] epc::Pcrf& pcrf() { return cell_.pcrf(); }
  [[nodiscard]] sim::RadioChannel& app_radio() { return *app_.radio; }
  [[nodiscard]] epc::Imsi app_imsi() const { return kAppImsi; }

  /// Measured disconnectivity ratio η over the whole run (Fig 14 x-axis).
  [[nodiscard]] double measured_disconnect_ratio();

 private:
  static constexpr epc::Imsi kAppImsi{111326547648ull};
  static constexpr epc::Imsi kBackgroundImsi{222326547648ull};
  static constexpr std::uint32_t kAppFlow = 1;
  static constexpr std::uint32_t kBackgroundFlow = 2;

  void record_timeline_point();
  void send_ping();

  /// The first five forks of `rng_`. Their order is part of the draw
  /// sequence testbed_golden_test pins.
  struct Forks {
    Rng app_radio, bg_radio, enodeb, app_device, bg_device;
  };

  ScenarioConfig config_;
  Rng rng_;
  Forks forks_;
  Cell cell_;
  CellUe& app_;

  bool ran_ = false;
  std::vector<CycleMeasurements> cycles_;

  // Timeline recording.
  bool timeline_enabled_ = false;
  SimTime timeline_interval_ = kSecond;
  std::vector<TimelinePoint> timeline_;
  std::uint64_t timeline_prev_device_bytes_ = 0;

  // RTT probing. Ping ids live in their own namespace above workload
  // packet ids; per-instance so concurrent testbeds never share state.
  int pings_remaining_ = 0;
  SimTime ping_interval_ = kSecond;
  std::uint64_t next_ping_id_ = 1ull << 40;
  std::vector<double> rtt_ms_;
};

}  // namespace tlc::testbed
