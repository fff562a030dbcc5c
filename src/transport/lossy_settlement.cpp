#include "transport/lossy_settlement.hpp"

#include <algorithm>

#include "sim/rng_stream.hpp"
#include "transport/settlement_runner.hpp"

namespace tlc::transport {

void fill_census(LossyBatchReport& report) {
  for (const core::SettlementReceipt& receipt : report.receipts) {
    switch (receipt.outcome) {
      case core::SettleOutcome::Converged:
        ++report.converged;
        break;
      case core::SettleOutcome::Retried:
        ++report.retried;
        break;
      case core::SettleOutcome::Degraded:
        ++report.degraded;
        break;
      case core::SettleOutcome::RejectedTamper:
        ++report.rejected_tamper;
        break;
    }
  }
}

LossySettler::LossySettler(core::BatchConfig config, TransportConfig transport,
                           const core::RsaKeyCache& keys)
    : config_(config), transport_(transport), keys_(keys) {}

LossyBatchReport LossySettler::settle(
    const std::vector<core::SettlementItem>& items, unsigned threads) const {
  LossyBatchReport report;
  report.receipts.resize(items.size());

  // Same grouping as BatchSettler: by UE in first-appearance order,
  // item n of a UE = its cycle n.
  const std::deque<core::UeGroup> groups =
      core::group_by_ue(items, report.receipts);

  auto run_group = [&](const core::UeGroup& group, std::size_t) {
    const std::uint64_t ue = group.ue_id;
    auto edge = core::make_batch_session(config_, keys_, ue,
                                         core::PartyRole::EdgeVendor,
                                         /*tolerate_faults=*/true);
    auto op = core::make_batch_session(config_, keys_, ue,
                                       core::PartyRole::Operator,
                                       /*tolerate_faults=*/true);
    // Fault schedules and retry jitter derive from (seed, ue, ...):
    // the group is a pure function of its inputs wherever it runs.
    // Even/odd streams split the per-UE index space between the two
    // consumers.
    const std::uint64_t fault_stream = 2 * ue;
    const std::uint64_t jitter_stream = 2 * ue + 1;
    FaultyChannel channel(transport_.to_edge, transport_.to_operator,
                          sim::stream_seed(transport_.seed, fault_stream));
    const std::uint64_t jitter_root =
        sim::stream_seed(transport_.seed, jitter_stream);
    std::uint64_t now = 0;

    for (std::size_t slot = 0; slot < group.item_indices.size(); ++slot) {
      const std::size_t item_index = group.item_indices[slot];
      const core::SettlementItem& item = items[item_index];
      core::SettlementReceipt& receipt = report.receipts[item_index];

      // Scoped by UE: the k-th visit of (settle-cycle, ue) is this
      // UE's cycle k no matter how groups land on workers.
      if (plan_ != nullptr) plan_->fire(recovery::kCrashSettleCycle, ue);

      if (!op->begin_cycle(item.op_view).ok() ||
          !edge->begin_cycle(item.edge_view).ok()) {
        receipt.failure_reason = "cycle could not start";
        continue;
      }
      // Each cycle is a fresh transport association: leftovers of the
      // previous cycle (late duplicates, reordered stragglers) must
      // not replay into this one.
      channel.drain();

      const std::uint64_t slot_stream = slot;
      SettlementRunner runner(*edge, *op, channel, transport_.retry,
                              sim::stream_seed(jitter_root, slot_stream), now);
      CycleRunResult result = runner.run_cycle(
          keys_.edge_key(ue).public_key, keys_.operator_key(ue).public_key);
      now = runner.now() + 1;

      receipt.outcome = result.outcome;
      receipt.completed = result.outcome == core::SettleOutcome::Converged ||
                          result.outcome == core::SettleOutcome::Retried;
      receipt.charged = result.charged;
      receipt.rounds = result.rounds;
      receipt.poc_wire = std::move(result.poc_wire);
      receipt.retransmits = result.retransmits;
      receipt.failure_reason = std::move(result.failure_reason);
    }
  };

  core::run_groups(groups, threads, run_group);
  fill_census(report);
  return report;
}

}  // namespace tlc::transport
