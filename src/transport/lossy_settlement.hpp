// Batch settlement over a fault-injected transport (§8).
//
// The lossy-link counterpart of core::BatchSettler: the same per-UE
// reusable session pairs and key slots, but every wire message crosses
// a FaultyChannel and is protected by the stop-and-wait retry shim.
// Unlike the in-process settler, a cycle that cannot converge does not
// poison its UE — it degrades to the legacy CDR bill and the next
// cycle proceeds.
//
// Determinism contract: every random draw derives from
// (transport.seed, ue, message index) for faults, (transport.seed, ue,
// cycle, party) for retry jitter, and (rng_salt, ue, role) for session
// nonces — pure functions, no wall clock, no shared RNG sequences.
// Receipts and counters are therefore bit-identical for every thread
// count. With all-zero fault rates the PoC bytes equal the lossless
// BatchSettler's exactly, but only while every cycle converges: after
// a failed cycle BatchSettler poisons the UE's remaining cycles, while
// this settler negotiates each one.
#pragma once

#include <cstddef>
#include <vector>

#include "core/batch_settlement.hpp"
#include "recovery/crash_plan.hpp"
#include "transport/faulty_channel.hpp"
#include "transport/retry.hpp"
#include "transport/transport_config.hpp"

namespace tlc::transport {

/// Receipts plus the per-outcome census (§8 settlement counters) and
/// the coded-path census (§17; all-zero from LossySettler itself and
/// whenever TransportConfig::coding is off).
struct LossyBatchReport {
  std::vector<core::SettlementReceipt> receipts;
  std::size_t converged = 0;
  std::size_t retried = 0;
  std::size_t degraded = 0;
  std::size_t rejected_tamper = 0;
  CodedCounters coded;
};

/// Fills the per-outcome census from the receipts, in input order — a
/// pure function of the receipts.
void fill_census(LossyBatchReport& report);

class LossySettler {
 public:
  /// `keys` must outlive the settler.
  LossySettler(core::BatchConfig config, TransportConfig transport,
               const core::RsaKeyCache& keys);

  /// Wires in crash injection: the settle-cycle point fires before
  /// each (UE, cycle) negotiation, scoped by UE id so the schedule is
  /// thread-count independent. A CrashException raised inside a worker
  /// is caught there, the remaining workers drain, and it is rethrown
  /// from the calling thread — the supervisor sees one clean crash.
  void set_crash_plan(recovery::CrashPlan* plan) { plan_ = plan; }

  /// Settles every item; same grouping, ordering and threading rules
  /// as BatchSettler::settle.
  [[nodiscard]] LossyBatchReport settle(
      const std::vector<core::SettlementItem>& items,
      unsigned threads = 1) const;

 private:
  core::BatchConfig config_;
  TransportConfig transport_;
  const core::RsaKeyCache& keys_;
  recovery::CrashPlan* plan_ = nullptr;
};

}  // namespace tlc::transport
