// One simulated cell of the §7 testbed (Figure 11): a small cell
// (eNodeB), its EPC (HSS, MME, PCRF, SPGW) and a co-located edge server,
// serving the UEs its owner adds. `Testbed` adds the app device and the
// background phone; a fleet shard adds N members and an optional
// background phone. The cell alone knows how that world is wired (EMM
// attach, the gateway's server sink, COUNTER CHECK dispatch by IMSI to
// each UE's meter) and how it is driven.
//
// Every `Rng` comes from the owner, so the owner decides where each
// component sits in its own draw sequence. No constructor here schedules
// an event, so the owner may add UEs, sources and meters in any order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
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

/// One UE of a cell: its radio, device, traffic and, unless it only
/// loads the cell (the background phone), its counting points.
struct CellUe {
  epc::Imsi imsi{0};
  std::unique_ptr<sim::RadioChannel> radio;
  std::unique_ptr<epc::UeDevice> device;
  /// Started and stopped in order with the cell.
  std::vector<std::unique_ptr<workloads::TrafficSource>> sources;
  std::unique_ptr<UeMeter> meter;
};

class Cell {
 public:
  /// `scenario` supplies the eNodeB parameters and whether the operator
  /// runs RRC COUNTER CHECK; `enodeb_rng` is the eNodeB's own stream.
  Cell(const ScenarioConfig& scenario, Rng enodeb_rng,
       epc::SpgwParams spgw_params = {});
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Adds an app UE in the scenario's radio environment with the
  /// scenario's device and its app's workload on `flow_id`, provisions
  /// it and installs the app's QoS rule. The radio and the device take
  /// their own Rngs; the workload takes one fork of `rng` (a trace
  /// replay takes none). The UE registers with the MME when the cell
  /// runs.
  CellUe& add_ue(epc::Imsi imsi, const ScenarioConfig& scenario,
                 std::uint32_t flow_id, Rng radio_rng, Rng device_rng,
                 Rng& rng);

  /// Adds the background phone: strong signal that never drops, a
  /// best-effort (QCI 9) rule on `flow_id`, no meter, and iperf-like
  /// load at scenario.background_mbps in the direction of scenario.app
  /// (uplink leaves the phone, downlink enters at the gateway). The load
  /// takes one fork of `rng`; at zero rate there is none and no draw.
  void add_background_phone(epc::Imsi imsi, std::uint32_t flow_id,
                            const ScenarioConfig& scenario, Rng radio_rng,
                            Rng device_rng, Rng& rng);

  /// Meters `ue` per `scenario` (see UeMeter).
  void add_meter(CellUe& ue, const ScenarioConfig& scenario, Rng& rng,
                 bool meter_uncharged = false);

  /// Drives the cell once: registers every UE with the MME in add
  /// order, schedules each meter's boundaries, starts the MME and then
  /// every source in add order, calls `after_start` (the owner's own
  /// probes), simulates to `horizon` and stops the sources.
  void run(SimTime horizon, const std::function<void()>& after_start = {});

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] epc::EnodeB& enodeb() { return enodeb_; }
  [[nodiscard]] epc::Mme& mme() { return mme_; }
  [[nodiscard]] epc::Spgw& spgw() { return spgw_; }
  [[nodiscard]] epc::Hss& hss() { return hss_; }
  [[nodiscard]] epc::Pcrf& pcrf() { return pcrf_; }
  /// In add order.
  [[nodiscard]] const std::deque<CellUe>& ues() const { return ues_; }

 private:
  CellUe& add_entry(epc::Imsi imsi, const sim::RadioParams& radio,
                    const epc::DeviceProfile& device, Rng radio_rng,
                    Rng device_rng);

  sim::Simulator sim_;
  epc::Hss hss_;
  epc::Pcrf pcrf_;
  epc::EnodeB enodeb_;
  epc::Mme mme_;
  epc::Spgw spgw_;
  EdgeServer server_;
  std::deque<CellUe> ues_;
  std::unordered_map<epc::Imsi, CellUe*> by_imsi_;
};

}  // namespace tlc::testbed
