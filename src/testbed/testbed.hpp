// The emulated testbed of §7 / Figure 11, assembled.
//
// One small cell (eNodeB) + EPC function nodes (HSS, MME, PCRF, SPGW,
// and the charging monitors that feed OFCS/TLC), an edge server
// co-located with the core, the application device, and a second phone
// absorbing iperf background traffic.
//
// `run()` drives the configured number of charging cycles and returns,
// per cycle, the ground-truth volumes and each party's sampled
// measurements — everything the charging schemes (legacy / TLC) need.
#pragma once

#include <memory>
#include <vector>

#include "epc/enodeb.hpp"
#include "epc/hss.hpp"
#include "epc/mme.hpp"
#include "epc/pcrf.hpp"
#include "epc/spgw.hpp"
#include "epc/ue.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "testbed/edge_server.hpp"
#include "testbed/scenario.hpp"
#include "testbed/ue_meter.hpp"
#include "workloads/source.hpp"

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
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] epc::EnodeB& enodeb() { return *enodeb_; }
  [[nodiscard]] epc::Spgw& spgw() { return *spgw_; }
  [[nodiscard]] epc::Mme& mme() { return *mme_; }
  [[nodiscard]] epc::Hss& hss() { return hss_; }
  [[nodiscard]] epc::Pcrf& pcrf() { return pcrf_; }
  [[nodiscard]] epc::UeDevice& app_ue() { return *app_ue_; }
  [[nodiscard]] EdgeServer& server() { return *server_; }
  [[nodiscard]] sim::RadioChannel& app_radio() { return *app_radio_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] epc::Imsi app_imsi() const { return kAppImsi; }

  /// Measured disconnectivity ratio η over the whole run (Fig 14 x-axis).
  [[nodiscard]] double measured_disconnect_ratio();

 private:
  static constexpr epc::Imsi kAppImsi{111326547648ull};
  static constexpr epc::Imsi kBackgroundImsi{222326547648ull};
  static constexpr std::uint32_t kAppFlow = 1;
  static constexpr std::uint32_t kBackgroundFlow = 2;

  void wire_attach_handling();
  void on_app_receive(const sim::Packet& packet);
  void record_timeline_point();
  void send_ping();

  ScenarioConfig config_;
  Rng rng_;
  sim::Simulator sim_;

  std::unique_ptr<sim::RadioChannel> app_radio_;
  std::unique_ptr<sim::RadioChannel> bg_radio_;
  std::unique_ptr<epc::EnodeB> enodeb_;
  epc::Hss hss_;
  epc::Pcrf pcrf_;
  std::unique_ptr<epc::Mme> mme_;
  std::unique_ptr<epc::Spgw> spgw_;
  std::unique_ptr<EdgeServer> server_;
  std::unique_ptr<epc::UeDevice> app_ue_;
  std::unique_ptr<epc::UeDevice> bg_ue_;

  std::unique_ptr<workloads::TrafficSource> app_source_;
  std::unique_ptr<workloads::TrafficSource> bg_source_;

  std::unique_ptr<UeMeter> meter_;

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
