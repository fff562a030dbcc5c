#include "testbed/testbed.hpp"

#include <cmath>

namespace tlc::testbed {

Testbed::Testbed(ScenarioConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      forks_{rng_.fork(), rng_.fork(), rng_.fork(), rng_.fork(), rng_.fork()},
      cell_(config_, forks_.enodeb),
      app_(cell_.add_ue(kAppImsi, config_, kAppFlow, forks_.app_radio,
                        forks_.app_device, rng_)) {
  // The background phone attaches even with no background load: it
  // only exists to congest the cell.
  cell_.add_background_phone(kBackgroundImsi, kBackgroundFlow, config_,
                             forks_.bg_radio, forks_.bg_device, rng_);
  app_.device->set_app_receive_handler([this](const sim::Packet& packet) {
    if (packet.flow_id == EdgeServer::kPingFlow) {
      rtt_ms_.push_back(to_millis(cell_.sim().now() - packet.created_at));
    }
  });
  cell_.add_meter(app_, config_, rng_);
}

void Testbed::record_timeline_point() {
  sim::Simulator& sim = cell_.sim();
  const sim::Direction direction = app_direction(config_.app);
  const epc::UeDevice& device = *app_.device;
  const std::uint64_t device_bytes = direction == sim::Direction::Uplink
                                         ? device.app_tx_bytes()
                                         : device.app_rx_bytes();
  const std::uint64_t charged_bytes =
      direction == sim::Direction::Uplink
          ? cell_.spgw().uplink_bytes(kAppImsi)
          : cell_.spgw().downlink_bytes(kAppImsi);

  TimelinePoint point;
  point.at = sim.now();
  const double delta_bytes =
      static_cast<double>(device_bytes - timeline_prev_device_bytes_);
  point.device_rate_mbps =
      delta_bytes * 8.0 / 1e6 / to_seconds(timeline_interval_);
  timeline_prev_device_bytes_ = device_bytes;
  point.charged_cum_mb = static_cast<double>(charged_bytes) / 1e6;
  // The "edge side" cumulative for the gap: what the edge metered.
  point.device_cum_mb = static_cast<double>(device_bytes) / 1e6;
  point.gap_mb = std::abs(point.charged_cum_mb - point.device_cum_mb);
  point.rss_dbm = app_.radio->rss(sim.now());
  point.connected = app_.radio->connected(sim.now());
  timeline_.push_back(point);

  sim.schedule_after(timeline_interval_, [this] { record_timeline_point(); });
}

void Testbed::send_ping() {
  if (pings_remaining_ <= 0) return;
  --pings_remaining_;
  sim::Simulator& sim = cell_.sim();
  sim::Packet probe;
  probe.id = next_ping_id_++;
  probe.flow_id = EdgeServer::kPingFlow;
  probe.size_bytes = 64;
  probe.direction = sim::Direction::Uplink;
  // Probes ride the application's bearer, so the measured RTT reflects
  // the QoS class the app actually experiences (QCI 7 gaming pings are
  // not stuck behind best-effort backlog).
  probe.qci = app_qci(config_.app);
  probe.created_at = sim.now();
  app_.device->app_send(probe);
  sim.schedule_after(ping_interval_, [this] { send_ping(); });
}

void Testbed::enable_timeline(SimTime interval) {
  timeline_enabled_ = true;
  timeline_interval_ = interval;
}

void Testbed::enable_rtt_probes(int count, SimTime interval) {
  pings_remaining_ = count;
  ping_interval_ = interval;
}

double Testbed::measured_disconnect_ratio() {
  return app_.radio->measured_disconnect_ratio(cell_.sim().now());
}

const std::vector<CycleMeasurements>& Testbed::run() {
  if (ran_) return cycles_;
  ran_ = true;

  // The timeline and the probes run in the grace tail past the last
  // boundary, so the testbed keeps all of kBoundaryGrace.
  const SimTime horizon =
      static_cast<SimTime>(config_.cycles) * config_.cycle_length +
      kBoundaryGrace;
  cell_.run(horizon, [this] {
    sim::Simulator& sim = cell_.sim();
    if (timeline_enabled_) {
      sim.schedule_after(timeline_interval_,
                         [this] { record_timeline_point(); });
    }
    if (pings_remaining_ > 0) {
      sim.schedule_after(2 * kSecond, [this] { send_ping(); });
    }
  });

  cycles_ = app_.meter->cycles();
  return cycles_;
}

}  // namespace tlc::testbed
