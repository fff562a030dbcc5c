// Supervised fleet runner: run_fleet under a crash-recovery regime.
//
// `run_supervised_fleet` produces the same FleetResult as `run_fleet`
// — bit-identical, digests included — while surviving process deaths
// and shard wedges injected by a recovery::CrashPlan at any of the
// instrumented boundaries (DESIGN.md §11.3). It runs the same driver
// (engine_detail.hpp) with on-disk durability. Three legs:
//
//   1. Shard worlds are pure functions of (config, slice). Each shard
//      job checkpoints its records (`<state_dir>/shard-<i>.ckpt`).
//   2. Receipts are pure per-UE functions of the records. Each shard
//      job checkpoints its receipts and coded census
//      (`<state_dir>/settle-<i>.ckpt`); only unsettled shards
//      re-negotiate.
//   3. The OFCS ledger runs write-ahead over a StateLog
//      (`<state_dir>/ofcs.{ckpt,wal}`) with idempotent record IDs, so
//      re-executing the aggregation pass over a recovered ledger is a
//      stream of deduped no-ops up to the crash point.
//
// An incarnation is one attempt at the whole pipeline; a later one
// reuses every checkpoint the dead one wrote. A Kill anywhere aborts
// it (concurrent workers bail at their next instrumented point via the
// plan's dying-state replication). A Wedge anywhere in a shard job is
// absorbed by that job's watchdog, which re-runs it; a Wedge elsewhere
// restarts the incarnation.
#pragma once

#include <cstddef>
#include <string>

#include "fleet/engine.hpp"
#include "recovery/crash_plan.hpp"
#include "util/expected.hpp"

namespace tlc::fleet {

struct SupervisorConfig {
  FleetConfig fleet;
  /// Directory for checkpoints and journals; created if absent. Must
  /// be set — crash consistency without a place to put state is not a
  /// thing. Must not be shared across configs: state left by a dead
  /// run is reused as-is whenever its shape fits. A shard checkpoint
  /// whose record count, UE range or cycle count differs from this
  /// run's is rejected with an error, as is a settle checkpoint of
  /// another shard or (UE, cycle) sequence, but same-shape stale state
  /// from another config is spliced in unchecked.
  std::string state_dir;
  /// Crash injection; nullptr = run with recovery machinery but no
  /// injected faults.
  recovery::CrashPlan* plan = nullptr;
  /// Incarnation budget: total process (re)starts before giving up.
  int max_incarnations = 64;
  /// Watchdog budget: wedge restarts of one shard job within one
  /// incarnation before the incarnation is declared failed.
  int max_shard_retries = 4;
  /// OFCS checkpoint cadence: snapshot + journal rotation every N
  /// closed cycles.
  int checkpoint_every_cycles = 1;
};

/// What the supervision cost: every counter accumulates across
/// incarnations.
struct SupervisionStats {
  int incarnations = 0;
  /// Kill sites that ended an incarnation.
  int crashes = 0;
  /// Wedge sites fired (shard-level and incarnation-level together).
  int wedges = 0;
  /// Shard job re-runs performed by the per-shard watchdog.
  int shard_restarts = 0;
  /// Shard records loaded from a prior incarnation's checkpoint
  /// instead of re-simulated.
  std::size_t shard_checkpoints_reused = 0;
  /// Shard settlements loaded from a prior incarnation's checkpoint
  /// instead of re-negotiated.
  std::size_t settle_checkpoints_reused = 0;
  /// Journaled OFCS ops dropped by record-ID dedupe (each one is a
  /// would-be double-ingested CDR or double-billed cycle).
  std::uint64_t duplicate_ops_dropped = 0;
};

struct SupervisedResult {
  FleetResult result;
  SupervisionStats stats;
};

/// Runs the fleet under supervision. On success the state directory's
/// recovery files are removed (the run is settled; nothing to replay).
/// Fails when the incarnation or watchdog budget is exhausted or the
/// recovery machinery itself reports an I/O error.
[[nodiscard]] Expected<SupervisedResult> run_supervised_fleet(
    const SupervisorConfig& config);

}  // namespace tlc::fleet
