// One fleet shard: the testbed's `testbed::Cell` serving a population.
//
// The same cell `testbed::Testbed` runs (eNodeB, MME, HSS, PCRF, SPGW,
// edge server) serves N metered app UEs plus an optional background
// phone congesting it. UEs genuinely contend for the shared cell
// capacity, so fleet-level loss statistics include the
// cross-subscriber congestion the paper's Fig 3 sweep isolates. The
// shard adds what is fleet-only: the members' profile draws, the §13
// adversary overlays and the per-member scheme evaluation.
//
// A shard is strictly single-threaded and deterministic: its entire
// randomness tree roots at stream_seed(fleet_seed, shard_index), and
// all scheduling happens in the cell's fixed run order. Parallelism
// exists only *across* shards — never inside one.
#pragma once

#include <map>
#include <vector>

#include "epc/spgw.hpp"
#include "fleet/fleet_config.hpp"
#include "sim/simulator.hpp"
#include "testbed/cell.hpp"
#include "testbed/experiment.hpp"
#include "workloads/adversarial.hpp"

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

  /// Runs all cycles; idempotent. Records are ordered by ue_index.
  const std::vector<UeRecord>& run();

  [[nodiscard]] sim::Simulator& simulator() { return cell_.sim(); }
  [[nodiscard]] epc::EnodeB& enodeb() { return cell_.enodeb(); }

  /// IMSI for a global fleet index (stable across shard/thread counts).
  [[nodiscard]] static epc::Imsi fleet_imsi(std::uint64_t ue_index);

 private:
  [[nodiscard]] std::uint64_t shard_seed() const;
  void add_member(std::uint64_t ue_index, std::uint64_t member_stream);
  void add_background();

  FleetConfig config_;
  int shard_index_;
  /// Member i is the cell's UE i; records fill in when the shard runs.
  std::vector<UeRecord> records_;
  testbed::Cell cell_;
  bool ran_ = false;
};

}  // namespace tlc::fleet
