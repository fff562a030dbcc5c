#include "testbed/cell.hpp"

#include <cassert>

#include "workloads/background.hpp"
#include "workloads/gaming.hpp"
#include "workloads/trace.hpp"
#include "workloads/vr_gvsp.hpp"
#include "workloads/webcam.hpp"

namespace tlc::testbed {

Cell::Cell(const ScenarioConfig& scenario, Rng enodeb_rng,
           epc::SpgwParams spgw_params)
    : enodeb_(sim_, scenario.enodeb, enodeb_rng),
      mme_(sim_, hss_),
      spgw_(sim_, enodeb_, spgw_params),
      server_(sim_, spgw_) {
  spgw_.set_server_sink([this](epc::Imsi imsi, const sim::Packet& packet) {
    server_.deliver_uplink(imsi, packet);
  });

  // EMM attach handling: a UE's session, radio bearer and device state
  // follow the MME.
  mme_.set_state_change_handler([this](epc::Imsi imsi, bool attached) {
    auto it = by_imsi_.find(imsi);
    if (it == by_imsi_.end()) return;
    CellUe& ue = *it->second;
    if (attached) {
      spgw_.create_session(imsi);
      enodeb_.add_ue(imsi, ue.device.get(), ue.radio.get());
    } else {
      spgw_.close_session(imsi);
      enodeb_.remove_ue(imsi);
    }
    ue.device->set_attached(attached);
  });

  // Operator's tamper-resilient monitor feed (§5.4), dispatched to the
  // reporting UE's meter.
  if (scenario.enable_counter_check) {
    enodeb_.set_counter_check_handler(
        [this](epc::Imsi imsi, std::uint64_t ul, std::uint64_t dl,
               SimTime at) {
          auto it = by_imsi_.find(imsi);
          if (it == by_imsi_.end() || !it->second->meter) return;
          it->second->meter->on_counter_check(ul, dl, at);
        });
  }
}

CellUe& Cell::add_entry(epc::Imsi imsi, const sim::RadioParams& radio,
                        const epc::DeviceProfile& device, Rng radio_rng,
                        Rng device_rng) {
  CellUe& ue = ues_.emplace_back();
  ue.imsi = imsi;
  ue.radio = std::make_unique<sim::RadioChannel>(radio, radio_rng);
  ue.device = std::make_unique<epc::UeDevice>(sim_, imsi, device,
                                              ue.radio.get(), &enodeb_,
                                              device_rng);
  by_imsi_.emplace(imsi, &ue);
  return ue;
}

CellUe& Cell::add_ue(epc::Imsi imsi, const ScenarioConfig& scenario,
                     std::uint32_t flow_id, Rng radio_rng, Rng device_rng,
                     Rng& rng) {
  const sim::RadioParams radio{.mean_rss_dbm = scenario.mean_rss_dbm,
                               .disconnect_ratio = scenario.disconnect_ratio,
                               .mean_outage_s = scenario.mean_outage_s,
                               .mobility = scenario.mobility};
  CellUe& ue = add_entry(imsi, radio, scenario.device, radio_rng, device_rng);
  ue.device->set_traffic_stats_tamper(scenario.edge_trafficstats_tamper);
  hss_.provision(epc::SubscriberProfile{imsi, "app-device", scenario.device});
  pcrf_.install_rule(flow_id, app_qci(scenario.app));

  const sim::Direction direction = app_direction(scenario.app);
  const sim::Qci qci = app_qci(scenario.app);
  workloads::TrafficSource::EmitFn sink;
  if (direction == sim::Direction::Uplink) {
    sink = [device = ue.device.get()](const sim::Packet& p) {
      device->app_send(p);
    };
  } else {
    sink = [this, imsi](const sim::Packet& p) { server_.app_send(imsi, p); };
  }
  std::unique_ptr<workloads::TrafficSource> source;
  if (scenario.replay_trace) {
    // The paper's methodology: loop a captured trace (tcprelay) through
    // the testbed instead of running a generative model.
    source = std::make_unique<workloads::TraceReplaySource>(
        sim_, sink, flow_id, *scenario.replay_trace, /*loop=*/true);
  } else {
    switch (scenario.app) {
      case AppKind::WebcamRtsp:
        source = std::make_unique<workloads::WebcamSource>(
            sim_, sink, flow_id, direction, qci,
            workloads::webcam_rtsp_params(), rng.fork(), "WebCam (RTSP)");
        break;
      case AppKind::WebcamUdp:
      case AppKind::WebcamUdpDownlink:
        source = std::make_unique<workloads::WebcamSource>(
            sim_, sink, flow_id, direction, qci,
            workloads::webcam_udp_params(), rng.fork(), "WebCam (UDP)");
        break;
      case AppKind::VrGvsp:
        source = std::make_unique<workloads::VrGvspSource>(
            sim_, sink, flow_id, direction, qci, workloads::VrGvspParams{},
            rng.fork());
        break;
      case AppKind::GamingQci7:
      case AppKind::GamingQci9:
        source = std::make_unique<workloads::GamingSource>(
            sim_, sink, flow_id, direction, qci, workloads::GamingParams{},
            rng.fork());
        break;
    }
  }
  ue.sources.push_back(std::move(source));
  return ue;
}

void Cell::add_background_phone(epc::Imsi imsi, std::uint32_t flow_id,
                                const ScenarioConfig& scenario, Rng radio_rng,
                                Rng device_rng, Rng& rng) {
  CellUe& phone = add_entry(imsi, {.mean_rss_dbm = -70.0},
                            epc::device_s7edge(), radio_rng, device_rng);
  hss_.provision(
      epc::SubscriberProfile{imsi, "background-phone", epc::device_s7edge()});
  pcrf_.install_rule(flow_id, sim::Qci::kQci9);
  if (scenario.background_mbps <= 0.0) return;

  const sim::Direction direction = app_direction(scenario.app);
  workloads::TrafficSource::EmitFn sink;
  if (direction == sim::Direction::Uplink) {
    sink = [device = phone.device.get()](const sim::Packet& p) {
      device->app_send(p);
    };
  } else {
    // Background downlink arrives from the Internet side of the
    // gateway, not from the edge server (it must not touch the edge
    // vendor's netstat counters).
    sink = [this, imsi](const sim::Packet& p) {
      spgw_.downlink_submit(imsi, p);
    };
  }
  workloads::BackgroundParams params;
  params.rate_mbps = scenario.background_mbps;
  phone.sources.push_back(std::make_unique<workloads::BackgroundUdpSource>(
      sim_, sink, flow_id, direction, params, rng.fork()));
}

void Cell::add_meter(CellUe& ue, const ScenarioConfig& scenario, Rng& rng,
                     bool meter_uncharged) {
  ue.meter = std::make_unique<UeMeter>(sim_, scenario, ue.imsi, *ue.device,
                                       server_, spgw_, rng, meter_uncharged);
}

void Cell::run(SimTime horizon, const std::function<void()>& after_start) {
  for (const CellUe& ue : ues_) {
    const bool ok = mme_.register_ue(ue.imsi, ue.radio.get());
    assert(ok);
    (void)ok;
  }
  for (CellUe& ue : ues_) {
    if (ue.meter) ue.meter->schedule_boundaries(enodeb_);
  }
  mme_.start();
  for (CellUe& ue : ues_) {
    for (auto& source : ue.sources) source->start(0);
  }
  if (after_start) after_start();
  sim_.run_until(horizon);
  // Stop sources so the simulator can quiesce if the owner keeps going.
  for (CellUe& ue : ues_) {
    for (auto& source : ue.sources) source->stop();
  }
}

}  // namespace tlc::testbed
