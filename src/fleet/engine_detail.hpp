// Internal fleet-engine building blocks, shared by the plain engine
// (engine.cpp) and the crash-supervised runner (supervisor.cpp).
//
// One driver, two durability policies: `drive_fleet` runs one shard
// job per slice on the pool (simulate → gap samples → `settle_batch`
// of the shard's own UE groups), merges in shard order, aggregates
// through the OFCS and digests. `run_fleet` passes no durability;
// `run_supervised_fleet` checkpoints both steps of each job, watches
// each job and journals the OFCS. Everything here is a pure function
// of its inputs, so a step recovered from disk is byte-identical to
// re-running it. `settle_batch` is the one settler dispatch.
#pragma once

#include <functional>
#include <vector>

#include "fleet/engine.hpp"
#include "recovery/crash_plan.hpp"
#include "transport/lossy_settlement.hpp"
#include "transport/settlement_journal.hpp"
#include "util/expected.hpp"

namespace tlc::fleet::detail {

/// One contiguous range of global UE indices owned by one shard. The
/// partition depends only on (ue_count, shards), never thread count.
struct ShardSlice {
  int shard_index = 0;
  std::uint64_t first_ue = 0;
  std::size_t ue_count = 0;
};

[[nodiscard]] std::vector<ShardSlice> partition_shards(
    const FleetConfig& config);

/// Everything one shard job produces. Workers fill disjoint slots —
/// records, receipts and gap samples alike — and the engine merges the
/// slots in shard order after the pool drains, so the parallel phase
/// shares no mutable state at all.
struct ShardOutcome {
  std::vector<UeRecord> records;
  std::vector<core::SettlementReceipt> receipts;
  std::map<testbed::Scheme, Samples> gap_samples;
  transport::CodedCounters coded;
};

/// Runs one shard world to completion. Pure function of
/// (config, slice) — a re-run after a crash reproduces the records
/// byte for byte.
[[nodiscard]] std::vector<UeRecord> run_shard_slice(const FleetConfig& config,
                                                    const ShardSlice& slice);

/// Appends the fleet gap CDF inputs in (ue_index, cycle) order.
void collect_gap_samples(const std::vector<UeRecord>& records,
                         std::map<testbed::Scheme, Samples>& gap_samples);

[[nodiscard]] core::BatchConfig make_batch_config(const FleetConfig& config);

[[nodiscard]] std::uint64_t key_cache_seed(const FleetConfig& config);

/// Settlement inputs in (ue_index, cycle) order; each UE's items are
/// contiguous, so any chunking along whole-UE boundaries settles to
/// identical receipts.
[[nodiscard]] std::vector<core::SettlementItem> settlement_items(
    const std::vector<UeRecord>& records, const FleetConfig& config);

/// Settles `items` on the calling thread with the settler `config`
/// selects: transport::CodedSettler for a lossy transport coded with
/// RLNC, transport::LossySettler for any other lossy transport, else
/// core::BatchSettler. `plan` (nullable) is wired into the transport
/// settlers, which fire the settle-cycle point per (UE, cycle); the
/// in-process settler has no crash hook, so here the point fires once
/// per item before any settles — the same (point, scope, hit) schedule
/// on every path. `coded` is all-zero off the coded path.
[[nodiscard]] transport::LossyBatchReport settle_batch(
    const FleetConfig& config, const core::BatchConfig& batch,
    const core::RsaKeyCache& keys,
    const std::vector<core::SettlementItem>& items,
    recovery::CrashPlan* plan);

/// OFCS aggregation: tallies the settlement census from
/// `result.receipts`, installs the TLC charge hook over them, ingests
/// the synthetic gateway CDRs and closes every cycle; fills
/// bills/totals/settlement fields of `result` (records/gap_samples/
/// receipts must already be there). `ofcs` is caller-constructed — the
/// supervisor attaches its recovery log first — and `after_cycle`
/// (nullable) runs after each cycle closes, which is where checkpoints
/// go. Idempotent against a recovered `ofcs`: re-ingested CDRs and
/// re-closed cycles dedupe.
void aggregate_fleet(const FleetConfig& config, epc::Ofcs& ofcs,
                     FleetResult& result,
                     const std::function<void(int cycle)>& after_cycle);

/// The data plan the fleet OFCS rates against.
[[nodiscard]] charging::DataPlan fleet_plan(const FleetConfig& config);

/// Fills the five SHA-256 digests (measurement, CDF, PoC, anomaly,
/// ingest) from the result's own fields.
void compute_digests(FleetResult& result);

/// What a fleet run does to survive crashes. This base class is the
/// "none" policy: each hook runs its step once, straight through; the
/// supervisor overrides every hook with on-disk durability. Shard-job
/// hooks run concurrently on pool workers, one job per slice.
class Durability {
 public:
  Durability() = default;
  Durability(const Durability&) = delete;  // pool jobs hold its address
  Durability& operator=(const Durability&) = delete;
  virtual ~Durability() = default;

  /// Runs one whole shard job; may run it again from scratch.
  [[nodiscard]] virtual Status run_job(const ShardSlice& /*slice*/,
                                       const std::function<Status()>& job) {
    return job();
  }

  /// The records step: `simulate` is run_shard_slice of the slice.
  [[nodiscard]] virtual Expected<std::vector<UeRecord>> records(
      const ShardSlice& /*slice*/,
      const std::function<std::vector<UeRecord>()>& simulate) {
    return simulate();
  }

  /// The settle step: `settle_items` is settle_batch of the shard's
  /// `items` under the given crash plan, with the shard index as its
  /// chunk index.
  [[nodiscard]] virtual Expected<transport::SettlementChunk> settle(
      const ShardSlice& /*slice*/,
      const std::vector<core::SettlementItem>& /*items*/,
      const std::function<transport::SettlementChunk(recovery::CrashPlan*)>&
          settle_items) {
    return settle_items(nullptr);
  }

  /// The OFCS pass over the merged `result`.
  [[nodiscard]] virtual Status aggregate(const FleetConfig& config,
                                         FleetResult& result) {
    epc::Ofcs ofcs(fleet_plan(config));
    aggregate_fleet(config, ofcs, result, nullptr);
    return Status::Ok();
  }
};

/// The one fleet driver. Each shard job writes only its own slot; an
/// exception a job throws is held until the pool drains, then the
/// first one in shard order is rethrown. Only `durability` can fail.
[[nodiscard]] Expected<FleetResult> drive_fleet(const FleetConfig& config,
                                                Durability& durability);

}  // namespace tlc::fleet::detail
