#include "testbed/ue_meter.hpp"

#include <algorithm>

namespace tlc::testbed {
namespace {

/// The operator refreshes its RRC-based record this long before it
/// snapshots (bounded overhead: one COUNTER CHECK per boundary plus
/// those piggybacked on RRC releases).
constexpr SimTime kCounterCheckLead = 120 * kMillisecond;

SimTime draw_clamped_offset(const charging::ClockModel& model, Rng& rng,
                            SimTime max_abs) {
  const SimTime offset = model.draw_offset(rng);
  return std::clamp<SimTime>(offset, -max_abs, max_abs);
}

}  // namespace

SimTime max_boundary_offset(SimTime cycle_length) {
  return std::min<SimTime>(kBoundaryGrace - 5 * kSecond, cycle_length / 2);
}

UeMeter::UeMeter(sim::Simulator& sim, const ScenarioConfig& scenario,
                 epc::Imsi imsi, epc::UeDevice& device, EdgeServer& server,
                 epc::Spgw& spgw, Rng& rng, bool meter_uncharged)
    : sim_(sim), scenario_(scenario), imsi_(imsi) {
  const bool uplink = app_direction(scenario.app) == sim::Direction::Uplink;
  const charging::ClockModel exact{0.0, 0.0};

  // Ground-truth counting points at the two app endpoints.
  const charging::UsageMonitor& true_sent =
      uplink ? add_monitor("true-sent",
                           [&device] { return device.app_tx_bytes(); })
             : add_monitor("true-sent",
                           [&server, imsi] { return server.sent_bytes(imsi); });
  const charging::UsageMonitor& true_received =
      uplink ? add_monitor("true-received",
                           [&server, imsi] {
                             return server.received_bytes(imsi);
                           })
             : add_monitor("true-received",
                           [&device] { return device.app_rx_bytes(); });

  // Operator's gateway counter for the app's direction (the legacy
  // billing basis).
  const charging::UsageMonitor& gateway =
      uplink ? add_monitor("gateway-ul",
                           [&spgw, imsi] { return spgw.uplink_bytes(imsi); })
             : add_monitor("gateway-dl",
                           [&spgw, imsi] { return spgw.downlink_bytes(imsi); });

  // Operator's view of the other endpoint: RRC COUNTER CHECK when
  // activated (§5.4 "our solution"), else the tamperable user-space
  // TrafficStats API (strawman 1).
  const charging::UsageMonitor* op_far_side = nullptr;
  if (scenario.enable_counter_check) {
    op_far_side = uplink ? &rrc_ul_ : &rrc_dl_;
  } else {
    op_far_side =
        uplink ? &add_monitor("trafficstats-tx",
                              [&device] { return device.traffic_stats_tx(); })
               : &add_monitor("trafficstats-rx",
                              [&device] { return device.traffic_stats_rx(); });
  }

  // Per-party assembled (sent, received) views: the edge meters its own
  // endpoints, the operator pairs the gateway with the far side.
  const charging::UsageMonitor& op_sent = uplink ? *op_far_side : gateway;
  const charging::UsageMonitor& op_received = uplink ? gateway : *op_far_side;

  auto sampler = [&](const charging::UsageMonitor& monitor) {
    return std::make_unique<charging::CycleSampler>(sim, monitor, exact,
                                                    rng.fork());
  };
  true_sent_ = sampler(true_sent);
  true_received_ = sampler(true_received);
  edge_sent_ = sampler(true_sent);
  edge_received_ = sampler(true_received);
  op_sent_ = sampler(op_sent);
  op_received_ = sampler(op_received);
  gateway_ = sampler(gateway);
  edge_clock_rng_ = rng.fork();
  op_clock_rng_ = rng.fork();

  if (meter_uncharged) {
    uncharged_ = sampler(add_monitor(
        "uncharged", [&spgw, imsi] { return spgw.uncharged_bytes(imsi); }));
  }
}

const charging::UsageMonitor& UeMeter::add_monitor(
    std::string name, std::function<std::uint64_t()> reader) {
  monitors_.push_back(std::make_unique<charging::CallbackMonitor>(
      std::move(name), std::move(reader)));
  return *monitors_.back();
}

void UeMeter::on_counter_check(std::uint64_t ul, std::uint64_t dl,
                               SimTime at) {
  rrc_ul_.on_report(ul, dl, at);
  rrc_dl_.on_report(ul, dl, at);
}

void UeMeter::schedule_boundaries(epc::EnodeB& enodeb) {
  const SimTime max_offset = max_boundary_offset(scenario_.cycle_length);
  const double cycle_s = to_seconds(scenario_.cycle_length);
  const charging::ClockModel edge_clock{
      scenario_.edge_clock_rel_std * cycle_s, 0.0};
  const charging::ClockModel op_clock{
      scenario_.operator_clock_rel_std * cycle_s, 0.0};

  for (int i = 0; i <= scenario_.cycles; ++i) {
    const SimTime nominal = static_cast<SimTime>(i) * scenario_.cycle_length;
    const SimTime edge_at =
        nominal + draw_clamped_offset(edge_clock, edge_clock_rng_, max_offset);
    const SimTime op_at =
        nominal + draw_clamped_offset(op_clock, op_clock_rng_, max_offset);

    true_sent_->schedule_boundary(nominal);
    true_received_->schedule_boundary(nominal);
    edge_sent_->schedule_boundary(edge_at);
    edge_received_->schedule_boundary(edge_at);
    op_sent_->schedule_boundary(op_at);
    op_received_->schedule_boundary(op_at);
    gateway_->schedule_boundary(op_at);
    if (uncharged_) uncharged_->schedule_boundary(op_at);

    if (scenario_.enable_counter_check) {
      sim_.schedule_at(std::max<SimTime>(op_at - kCounterCheckLead, 0),
                       [&enodeb, imsi = imsi_] {
                         enodeb.request_counter_check(imsi);
                       });
    }
  }
}

std::vector<CycleMeasurements> UeMeter::cycles() const {
  std::vector<CycleMeasurements> cycles(
      static_cast<std::size_t>(std::max(scenario_.cycles, 0)));
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    CycleMeasurements& cycle = cycles[i];
    cycle.true_sent = true_sent_->cycle_volume(i);
    cycle.true_received = true_received_->cycle_volume(i);
    cycle.edge_sent = edge_sent_->cycle_volume(i);
    cycle.edge_received = edge_received_->cycle_volume(i);
    cycle.op_sent = op_sent_->cycle_volume(i);
    cycle.op_received = op_received_->cycle_volume(i);
    cycle.gateway_volume = gateway_->cycle_volume(i);
  }
  return cycles;
}

std::vector<std::uint64_t> UeMeter::uncharged_per_cycle() const {
  std::vector<std::uint64_t> volumes(
      static_cast<std::size_t>(std::max(scenario_.cycles, 0)), 0);
  for (std::size_t i = 0; uncharged_ && i < volumes.size(); ++i) {
    volumes[i] = uncharged_->cycle_volume(i);
  }
  return volumes;
}

}  // namespace tlc::testbed
