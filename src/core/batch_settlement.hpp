// Batch TLC settlement over many (UE, cycle) pairs.
//
// The fleet case of §5: one edge vendor and one operator settle every
// subscriber's cycles, not a single device's. Running a fresh
// `TlcSession` pair per (UE, cycle) would re-run RSA keygen — by far
// the most expensive step (Fig 17) — tens of times per cycle, so the
// batch API amortizes it two ways:
//
//  * `RsaKeyCache` precomputes a small set of key pairs once,
//    deterministically from a seed, and hands them out by UE slot
//    (reads are const and thread-safe);
//  * one reusable `TlcSession` pair per UE settles that UE's cycles in
//    sequence, exactly as the single-UE API would.
//
// Distinct UEs share no mutable state, so `settle()` can fan UE groups
// out over worker threads — receipts are bit-identical for every thread
// count. The grouping and the worker fan-out (`group_by_ue`, `run_groups`)
// are the one scaffold every settler runs on, the transport settlers
// included.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/tlc_session.hpp"
#include "crypto/rsa.hpp"

namespace tlc::core {

/// Deterministic pool of precomputed RSA key pairs. Key slot `i` is a
/// pure function of (seed, i): growing or shrinking the cache never
/// changes the keys existing slots return.
class RsaKeyCache {
 public:
  RsaKeyCache(std::size_t modulus_bits, std::size_t slots,
              std::uint64_t seed);

  [[nodiscard]] std::size_t slots() const { return edge_keys_.size(); }
  [[nodiscard]] std::size_t modulus_bits() const { return modulus_bits_; }

  /// Keys for a UE relationship; `ue_id` maps onto a slot by modulo.
  [[nodiscard]] const crypto::RsaKeyPair& edge_key(std::uint64_t ue_id) const {
    return edge_keys_[static_cast<std::size_t>(ue_id % edge_keys_.size())];
  }
  [[nodiscard]] const crypto::RsaKeyPair& operator_key(
      std::uint64_t ue_id) const {
    return op_keys_[static_cast<std::size_t>(ue_id % op_keys_.size())];
  }

 private:
  std::size_t modulus_bits_;
  std::vector<crypto::RsaKeyPair> edge_keys_;
  std::vector<crypto::RsaKeyPair> op_keys_;
};

/// One (UE, cycle) settlement input. Items of one UE are settled in
/// input order through a single reused session pair; the n-th item of a
/// UE is its cycle n.
struct SettlementItem {
  std::uint64_t ue_id = 0;
  UsageView edge_view;
  UsageView op_view;
};

/// How a (UE, cycle) settlement ended (§8 per-cycle outcome taxonomy).
enum class SettleOutcome : std::uint8_t {
  Converged,       // negotiated on the first delivery of every message
  Retried,         // negotiated, but only after >= 1 retransmission
  Degraded,        // retry budget / deadline spent; legacy CDR bill
  RejectedTamper,  // corruption or forgery detected; legacy CDR bill
};

[[nodiscard]] const char* settle_outcome_name(SettleOutcome outcome);

/// Outcome census of a set of receipts: one counter per SettleOutcome.
struct SettlementCounters {
  std::uint64_t converged = 0;
  std::uint64_t retried = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected_tamper = 0;

  void count(SettleOutcome outcome);
  [[nodiscard]] std::uint64_t total() const {
    return converged + retried + degraded + rejected_tamper;
  }
  [[nodiscard]] bool operator==(const SettlementCounters&) const = default;
};

struct SettlementReceipt {
  std::uint64_t ue_id = 0;
  std::uint32_t cycle = 0;  // per-UE cycle index
  bool completed = false;
  std::uint64_t charged = 0;
  int rounds = 0;
  /// The archived PoC (identical on both sides; the operator's copy).
  Bytes poc_wire;
  SettleOutcome outcome = SettleOutcome::Degraded;
  /// Retransmissions spent on this cycle (lossy transport only).
  int retransmits = 0;
  /// Why the cycle did not converge (empty when it did).
  std::string failure_reason;
};

struct BatchConfig {
  double c = 0.5;
  SimTime cycle_length = kHour;
  SimTime first_cycle_start = 0;
  int max_rounds = 64;
  /// Root for per-session RNG derivation (nonces). Receipts are a pure
  /// function of (items, keys, salt).
  std::uint64_t rng_salt = 0x5eedfa11ULL;
};

/// Builds the reusable per-UE session one side of a batch settlement
/// runs. Key slots and the session RNG stream (salt, 2*ue + role) are
/// pure functions of their inputs, so any driver — the in-process
/// BatchSettler below or the lossy-transport settler — produces
/// byte-identical PoCs for the same inputs.
[[nodiscard]] std::unique_ptr<TlcSession> make_batch_session(
    const BatchConfig& config, const RsaKeyCache& keys, std::uint64_t ue_id,
    PartyRole role, bool tolerate_faults = false);

/// One UE's slice of a settlement batch: its item indices, in input
/// order (item n of a UE = its cycle n).
struct UeGroup {
  std::uint64_t ue_id = 0;
  std::vector<std::size_t> item_indices;  // into the input vector
};

/// Groups items by UE in first-appearance order and pre-fills each
/// receipt slot's (ue_id, cycle). The side index makes grouping O(n);
/// deque order alone fixes the output.
[[nodiscard]] std::deque<UeGroup> group_by_ue(
    const std::vector<SettlementItem>& items,
    std::vector<SettlementReceipt>& receipts);

/// The per-UE-group execution scaffold every settler runs on: calls
/// `run_group(group, group_index)` for every group. With more than one
/// thread, groups land on workers in a static round-robin partition:
/// each group is fully local to one worker and writes only its own
/// slots, so results never depend on the worker count. Injected
/// crashes must not escape a worker thread (std::terminate) — each
/// worker catches, the rest drain at their next group, and the first
/// crash is rethrown from the calling thread after join. CrashPlan's
/// dying-state replication makes "first" deterministic.
void run_groups(
    const std::deque<UeGroup>& groups, unsigned threads,
    const std::function<void(const UeGroup&, std::size_t)>& run_group);

/// In-process settlement: both parties' sessions exchange messages
/// through a local FIFO per UE. A cycle that fails to negotiate
/// poisons its UE: the UE's remaining cycles are left incomplete.
class BatchSettler {
 public:
  /// `keys` must outlive the settler.
  BatchSettler(BatchConfig config, const RsaKeyCache& keys);

  /// Settles every item. `threads` > 1 distributes UE groups over that
  /// many workers via run_groups (each group stays sequential
  /// internally). Receipts come back in input order and are identical
  /// for every thread count.
  [[nodiscard]] std::vector<SettlementReceipt> settle(
      const std::vector<SettlementItem>& items, unsigned threads = 1) const;

 private:
  BatchConfig config_;
  const RsaKeyCache& keys_;
};

}  // namespace tlc::core
