// One fleet shard: a self-contained multi-UE testbed world.
//
// The single-UE `testbed::Testbed` lifted to a population: one
// discrete-event simulator hosting one small cell + EPC function set
// (eNodeB, MME, HSS, PCRF, SPGW, edge server) serving N app UEs — each
// with its own radio channel, workload source drawn from the shard's
// RNG stream, RRC counter monitors and per-party cycle samplers — plus
// an optional background UE congesting the cell. UEs genuinely contend
// for the shared cell capacity, so fleet-level loss statistics include
// the cross-subscriber congestion the paper's Fig 3 sweep isolates.
//
// A shard is strictly single-threaded and deterministic: its entire
// randomness tree roots at stream_seed(fleet_seed, shard_index), and
// all scheduling happens in construction order. Parallelism exists only
// *across* shards — never inside one.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "epc/enodeb.hpp"
#include "epc/hss.hpp"
#include "epc/mme.hpp"
#include "epc/pcrf.hpp"
#include "epc/spgw.hpp"
#include "epc/ue.hpp"
#include "fleet/fleet_config.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "testbed/edge_server.hpp"
#include "testbed/experiment.hpp"
#include "testbed/testbed.hpp"
#include "workloads/source.hpp"

namespace tlc::fleet {

/// One member's spec and everything measured for it.
struct UeRecord {
  std::uint64_t ue_index = 0;  // global fleet index
  epc::Imsi imsi{0};
  testbed::FleetMember member;
  std::vector<testbed::CycleMeasurements> cycles;
  /// Per-scheme evaluation of the member's cycles (gap CDF inputs),
  /// computed inside the shard so it parallelizes with the runs.
  std::map<testbed::Scheme, std::vector<testbed::CycleOutcome>> outcomes;

  /// §13 byzantine overlay: which bypass this member ran (kNone for
  /// honest members), the gateway's detector state for it, and the
  /// uncharged volume the gateway forwarded per cycle (sampled at the
  /// operator's boundary, like gateway_volume). These live *outside*
  /// CycleMeasurements so the measurement digest — pinned by the
  /// zero-adversary identity test — keeps its exact composition.
  workloads::AdversaryKind adversary = workloads::AdversaryKind::kNone;
  epc::AnomalyCounters anomaly;
  std::vector<std::uint64_t> uncharged_per_cycle;
};

class FleetShard {
 public:
  /// Builds the shard world for global UE indices
  /// [first_ue, first_ue + ue_count). The population's profiles are
  /// drawn from the shard's seed stream during construction.
  FleetShard(const FleetConfig& config, int shard_index,
             std::uint64_t first_ue, std::size_t ue_count);
  ~FleetShard();

  /// Runs all cycles; idempotent. Records are ordered by ue_index.
  const std::vector<UeRecord>& run();

  [[nodiscard]] int shard_index() const { return shard_index_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] epc::EnodeB& enodeb() { return *enodeb_; }
  [[nodiscard]] std::size_t population() const { return ues_.size(); }

  /// IMSI for a global fleet index (stable across shard/thread counts).
  [[nodiscard]] static epc::Imsi fleet_imsi(std::uint64_t ue_index);

 private:
  struct UeCtx;

  [[nodiscard]] std::uint64_t shard_seed() const;
  void build_ue(std::uint64_t ue_index, std::uint64_t member_stream);
  void build_background();

  FleetConfig config_;
  int shard_index_;
  sim::Simulator sim_;

  epc::Hss hss_;
  epc::Pcrf pcrf_;
  std::unique_ptr<epc::EnodeB> enodeb_;
  std::unique_ptr<epc::Mme> mme_;
  std::unique_ptr<epc::Spgw> spgw_;
  std::unique_ptr<testbed::EdgeServer> server_;

  std::vector<std::unique_ptr<UeCtx>> ues_;
  std::map<epc::Imsi, UeCtx*> by_imsi_;

  // Background phone (one per shard cell, like the paper's testbed).
  std::unique_ptr<sim::RadioChannel> bg_radio_;
  std::unique_ptr<epc::UeDevice> bg_ue_;
  std::unique_ptr<workloads::TrafficSource> bg_source_;

  bool ran_ = false;
  std::vector<UeRecord> records_;
};

}  // namespace tlc::fleet
