// Internal fleet-engine building blocks, shared by the plain engine
// (engine.cpp) and the crash-supervised runner (supervisor.cpp).
//
// One code path, two drivers: run_fleet composes these helpers
// straight through, run_supervised_fleet interleaves them with
// checkpoints, journals and crash-injection points. Everything here is
// a pure function of its inputs, which is what makes the supervised
// run's splice-and-resume provably bit-identical to the plain run —
// the supervisor only ever substitutes a helper's output with that
// same output recovered from disk.
//
// Settlement has exactly one dispatch, `settle_batch`: it picks the
// in-process, stop-and-wait or RLNC-coded settler from the config. The
// engine calls it once per shard job with no crash plan; the
// supervisor calls it once per journal chunk with its plan.
#pragma once

#include <functional>
#include <vector>

#include "fleet/engine.hpp"
#include "recovery/crash_plan.hpp"
#include "transport/lossy_settlement.hpp"

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

/// Settles `items` on `threads` workers with the settler `config`
/// selects: transport::CodedSettler for a lossy transport coded with
/// RLNC, transport::LossySettler for any other lossy transport, else
/// core::BatchSettler. `plan` (nullable) is wired into the transport
/// settlers, which fire the settle-cycle point per (UE, cycle); the
/// in-process settler has no crash hook, so here the point fires once
/// per UE group before it settles. `coded` is all-zero off the coded
/// path.
[[nodiscard]] transport::LossyBatchReport settle_batch(
    const FleetConfig& config, const core::BatchConfig& batch,
    const core::RsaKeyCache& keys,
    const std::vector<core::SettlementItem>& items, unsigned threads,
    recovery::CrashPlan* plan);

/// OFCS aggregation: feeds the settlement census, installs the TLC
/// charge hook over `result.receipts`, ingests the synthetic gateway
/// CDRs and closes every cycle; fills bills/totals/settlement fields
/// of `result` (records/gap_samples/receipts must already be there).
/// `ofcs` is caller-constructed — the supervisor attaches its recovery
/// log first — and `after_cycle` (nullable) runs after each cycle
/// closes, which is where checkpoints go. Idempotent against a
/// recovered `ofcs`: re-ingested CDRs, re-closed cycles and
/// re-recorded settlements all dedupe.
void aggregate_fleet(const FleetConfig& config, epc::Ofcs& ofcs,
                     FleetResult& result,
                     const std::function<void(int cycle)>& after_cycle);

/// The data plan the fleet OFCS rates against.
[[nodiscard]] charging::DataPlan fleet_plan(const FleetConfig& config);

/// Fills the five SHA-256 digests (measurement, CDF, PoC, anomaly,
/// ingest) from the result's own fields.
void compute_digests(FleetResult& result);

}  // namespace tlc::fleet::detail
