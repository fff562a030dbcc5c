#include "fleet/supervisor.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "fleet/engine_detail.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/state_log.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/serde.hpp"
#include "util/thread_annotations.hpp"

namespace tlc::fleet {
namespace {

// ---------------------------------------------------------------------
// Shard checkpoint codec: the full UeRecord vector, every field exact
// (doubles as bits) so a reused checkpoint is indistinguishable from a
// re-run.
// ---------------------------------------------------------------------

// v2 appends the §13 byzantine fields (adversary kind, gateway anomaly
// counters, uncharged-per-cycle samples). Old-version checkpoints are
// rejected, which just forces a clean re-run of that shard.
constexpr std::uint8_t kShardRecordVersion = 2;

void write_record(ByteWriter& w, const UeRecord& record) {
  w.u64(record.ue_index);
  w.u64(record.imsi.value);
  w.u8(static_cast<std::uint8_t>(record.member.app));
  w.f64(record.member.mean_rss_dbm);
  w.f64(record.member.disconnect_ratio);
  w.f64(record.member.mobility_speed_mps);
  w.u64(record.member.seed);
  w.u32(static_cast<std::uint32_t>(record.cycles.size()));
  for (const testbed::CycleMeasurements& m : record.cycles) {
    w.u64(m.true_sent);
    w.u64(m.true_received);
    w.u64(m.edge_sent);
    w.u64(m.edge_received);
    w.u64(m.op_sent);
    w.u64(m.op_received);
    w.u64(m.gateway_volume);
  }
  w.u32(static_cast<std::uint32_t>(record.outcomes.size()));
  for (const auto& [scheme, outcomes] : record.outcomes) {
    w.u8(static_cast<std::uint8_t>(scheme));
    w.u32(static_cast<std::uint32_t>(outcomes.size()));
    for (const testbed::CycleOutcome& o : outcomes) {
      w.u64(o.expected);
      w.u64(o.charged);
      w.f64(o.gap_mb);
      w.f64(o.gap_mb_per_hr);
      w.f64(o.gap_ratio);
      w.i64(o.rounds);
      w.u8(o.completed ? 1 : 0);
    }
  }
  w.u8(static_cast<std::uint8_t>(record.adversary));
  const epc::AnomalyCounters& a = record.anomaly;
  for (std::uint64_t v : a.protocol_bytes) w.u64(v);
  for (std::uint64_t v : a.qci_bytes) w.u64(v);
  w.u64(a.free_bytes);
  w.u64(a.free_packets);
  w.u64(a.free_small_packets);
  w.u64(a.entropy_millis_sum);
  w.u64(a.zero_rated_bytes);
  w.u64(a.replayed_bytes);
  w.u64(a.replayed_packets);
  w.u32(a.flags);
  w.u32(static_cast<std::uint32_t>(record.uncharged_per_cycle.size()));
  for (std::uint64_t v : record.uncharged_per_cycle) w.u64(v);
}

Expected<UeRecord> read_record(ByteReader& r) {
  UeRecord record;
  auto ue_index = r.u64();
  if (!ue_index) return Err(ue_index.error());
  record.ue_index = *ue_index;
  auto imsi = r.u64();
  if (!imsi) return Err(imsi.error());
  record.imsi = epc::Imsi{*imsi};
  auto app = r.u8();
  if (!app) return Err(app.error());
  record.member.app = static_cast<testbed::AppKind>(*app);
  auto rss = r.f64();
  if (!rss) return Err(rss.error());
  record.member.mean_rss_dbm = *rss;
  auto disconnect = r.f64();
  if (!disconnect) return Err(disconnect.error());
  record.member.disconnect_ratio = *disconnect;
  auto mobility = r.f64();
  if (!mobility) return Err(mobility.error());
  record.member.mobility_speed_mps = *mobility;
  auto seed = r.u64();
  if (!seed) return Err(seed.error());
  record.member.seed = *seed;

  auto ncycles = r.u32();
  if (!ncycles) return Err(ncycles.error());
  record.cycles.resize(*ncycles);
  for (testbed::CycleMeasurements& m : record.cycles) {
    for (std::uint64_t* field :
         {&m.true_sent, &m.true_received, &m.edge_sent, &m.edge_received,
          &m.op_sent, &m.op_received, &m.gateway_volume}) {
      auto v = r.u64();
      if (!v) return Err(v.error());
      *field = *v;
    }
  }

  auto nschemes = r.u32();
  if (!nschemes) return Err(nschemes.error());
  for (std::uint32_t s = 0; s < *nschemes; ++s) {
    auto scheme = r.u8();
    if (!scheme) return Err(scheme.error());
    auto count = r.u32();
    if (!count) return Err(count.error());
    std::vector<testbed::CycleOutcome> outcomes(*count);
    for (testbed::CycleOutcome& o : outcomes) {
      auto expected = r.u64();
      if (!expected) return Err(expected.error());
      o.expected = *expected;
      auto charged = r.u64();
      if (!charged) return Err(charged.error());
      o.charged = *charged;
      auto gap_mb = r.f64();
      if (!gap_mb) return Err(gap_mb.error());
      o.gap_mb = *gap_mb;
      auto gap_hr = r.f64();
      if (!gap_hr) return Err(gap_hr.error());
      o.gap_mb_per_hr = *gap_hr;
      auto gap_ratio = r.f64();
      if (!gap_ratio) return Err(gap_ratio.error());
      o.gap_ratio = *gap_ratio;
      auto rounds = r.i64();
      if (!rounds) return Err(rounds.error());
      o.rounds = static_cast<int>(*rounds);
      auto completed = r.u8();
      if (!completed) return Err(completed.error());
      o.completed = *completed != 0;
    }
    record.outcomes.emplace(static_cast<testbed::Scheme>(*scheme),
                            std::move(outcomes));
  }

  auto adversary = r.u8();
  if (!adversary) return Err(adversary.error());
  record.adversary = static_cast<workloads::AdversaryKind>(*adversary);
  epc::AnomalyCounters& a = record.anomaly;
  std::vector<std::uint64_t*> counter_fields;
  for (std::uint64_t& v : a.protocol_bytes) counter_fields.push_back(&v);
  for (std::uint64_t& v : a.qci_bytes) counter_fields.push_back(&v);
  for (std::uint64_t* field :
       {&a.free_bytes, &a.free_packets, &a.free_small_packets,
        &a.entropy_millis_sum, &a.zero_rated_bytes, &a.replayed_bytes,
        &a.replayed_packets}) {
    counter_fields.push_back(field);
  }
  for (std::uint64_t* field : counter_fields) {
    auto v = r.u64();
    if (!v) return Err(v.error());
    *field = *v;
  }
  auto flags = r.u32();
  if (!flags) return Err(flags.error());
  a.flags = *flags;
  auto nuncharged = r.u32();
  if (!nuncharged) return Err(nuncharged.error());
  record.uncharged_per_cycle.resize(*nuncharged);
  for (std::uint64_t& v : record.uncharged_per_cycle) {
    auto value = r.u64();
    if (!value) return Err(value.error());
    v = *value;
  }
  return record;
}

// tlclint: codec(fleet_shard_checkpoint, encode, version=kShardRecordVersion)
Bytes encode_shard_records(const std::vector<UeRecord>& records) {
  ByteWriter w;
  w.u8(kShardRecordVersion);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const UeRecord& record : records) write_record(w, record);
  return w.take();
}

// tlclint: codec(fleet_shard_checkpoint, decode, version=kShardRecordVersion)
Expected<std::vector<UeRecord>> decode_shard_records(const Bytes& data) {
  ByteReader r(data);
  auto version = r.u8();
  if (!version) return Err(version.error());
  if (*version != kShardRecordVersion) {
    return Err("shard checkpoint: unknown version");
  }
  auto count = r.u32();
  if (!count) return Err(count.error());
  std::vector<UeRecord> records;
  records.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto record = read_record(r);
    if (!record) return Err(record.error());
    records.push_back(std::move(*record));
  }
  if (!r.exhausted()) return Err("shard checkpoint: trailing bytes");
  return records;
}

// A decodable checkpoint from a run of another shape (fewer cycles, a
// different partition) left in the same state_dir must not be spliced
// in: aggregation indexes every record's cycles by the current config.
Status check_shard_records(const std::vector<UeRecord>& records,
                           const detail::ShardSlice& slice,
                           const FleetConfig& fleet) {
  bool fits = records.size() == slice.ue_count;
  for (const UeRecord& record : records) {
    // Unsigned wrap sends a ue_index below the slice out of range too.
    fits = fits && record.ue_index - slice.first_ue < slice.ue_count &&
           record.cycles.size() == static_cast<std::size_t>(fleet.base.cycles);
  }
  if (fits) return Status::Ok();
  return Err("shard checkpoint: records do not match this run's shard");
}

// A settle checkpoint is spliced in only when it is this shard's and
// holds one receipt per settlement item (the slice's UE count × cycles),
// in item order: the OFCS charge hook looks receipts up by (UE, cycle).
Status check_settlement(const transport::SettlementChunk& chunk,
                        const detail::ShardSlice& slice,
                        const std::vector<core::SettlementItem>& items,
                        const FleetConfig& fleet) {
  const auto cycles = static_cast<std::size_t>(fleet.base.cycles);
  bool fits =
      chunk.chunk_index == static_cast<std::uint32_t>(slice.shard_index) &&
      chunk.receipts.size() == slice.ue_count * cycles &&
      chunk.receipts.size() == items.size();
  for (std::size_t i = 0; fits && i < items.size(); ++i) {
    fits = chunk.receipts[i].ue_id == items[i].ue_id &&
           chunk.receipts[i].cycle == i % cycles;
  }
  if (fits) return Status::Ok();
  return Err("settlement checkpoint: receipts do not match this run's shard");
}

// `<state_dir>/<step>-<shard>.ckpt`: one file per shard job step.
std::string checkpoint_path(const SupervisorConfig& config, const char* step,
                            int shard) {
  return config.state_dir + "/" + step + "-" + std::to_string(shard) + ".ckpt";
}

// ---------------------------------------------------------------------
// On-disk durability: each shard job step reuses a checkpoint (decoded
// and checked against this run, else an error: the rename protocol
// never leaves a torn one) or runs and writes one, a watchdog re-runs
// wedged jobs, and the OFCS ledger runs write-ahead over a StateLog.
// ---------------------------------------------------------------------

class OnDiskDurability final : public detail::Durability {
 public:
  OnDiskDurability(const SupervisorConfig& config, SupervisionStats& stats)
      : config_(config), stats_(&stats) {}

  Status run_job(const detail::ShardSlice& slice,
                 const std::function<Status()>& job) override {
    for (int attempt = 1;; ++attempt) {
      try {
        return job();
      } catch (const recovery::WedgeException& wedge) {
        // Watchdog deadline: the job hung. Re-run it; its steps resume
        // from whatever they checkpointed.
        count(&SupervisionStats::wedges);
        count(&SupervisionStats::shard_restarts);
        TLC_WARN("fleet") << "shard " << slice.shard_index << " wedged at "
                          << wedge.site.point << ", restarting (attempt "
                          << attempt << ")";
        if (attempt >= config_.max_shard_retries) {
          return Err("supervisor: shard wedged past the watchdog budget");
        }
      }
    }
  }

  Expected<std::vector<UeRecord>> records(
      const detail::ShardSlice& slice,
      const std::function<std::vector<UeRecord>()>& simulate) override {
    const auto scope = static_cast<std::uint64_t>(slice.shard_index);
    const std::string path =
        checkpoint_path(config_, "shard", slice.shard_index);
    auto existing = recovery::read_checkpoint_if_present(path);
    if (!existing) return Err(existing.error());
    if (existing->has_value()) {
      auto records = decode_shard_records(**existing);
      if (!records) return Err(records.error());
      Status matches = check_shard_records(*records, slice, config_.fleet);
      if (!matches.ok()) return Err(matches.error());
      count(&SupervisionStats::shard_checkpoints_reused);
      return records;
    }
    fire(recovery::kCrashShardRun, scope);
    std::vector<UeRecord> records = simulate();
    fire(recovery::kCrashShardWedge, scope);
    Status wrote = recovery::write_checkpoint(
        path, encode_shard_records(records), config_.plan, scope);
    if (!wrote.ok()) return Err(wrote.error());
    return records;
  }

  Expected<transport::SettlementChunk> settle(
      const detail::ShardSlice& slice,
      const std::vector<core::SettlementItem>& items,
      const std::function<transport::SettlementChunk(recovery::CrashPlan*)>&
          settle_items) override {
    const auto scope = static_cast<std::uint64_t>(slice.shard_index);
    const std::string path =
        checkpoint_path(config_, "settle", slice.shard_index);
    auto existing = recovery::read_checkpoint_if_present(path);
    if (!existing) return Err(existing.error());
    if (existing->has_value()) {
      auto chunk = transport::decode_settlement_chunk(**existing);
      if (!chunk) return Err(chunk.error());
      Status matches = check_settlement(*chunk, slice, items, config_.fleet);
      if (!matches.ok()) return Err(matches.error());
      count(&SupervisionStats::settle_checkpoints_reused);
      return chunk;
    }
    transport::SettlementChunk chunk = settle_items(config_.plan);
    fire(recovery::kCrashSettleChunkPre, scope);
    Status wrote = recovery::write_checkpoint(
        path,
        transport::encode_settlement_chunk(chunk.chunk_index, chunk.receipts,
                                           chunk.coded),
        config_.plan, scope);
    if (!wrote.ok()) return Err(wrote.error());
    fire(recovery::kCrashSettleChunkPost, scope);
    return chunk;
  }

  Status aggregate(const FleetConfig& fleet, FleetResult& result) override {
    auto log = recovery::StateLog::open(config_.state_dir, "ofcs",
                                        config_.plan, /*scope=*/0);
    if (!log) return Err(log.error());
    epc::Ofcs ofcs(detail::fleet_plan(fleet));
    if (Status s = ofcs.attach_recovery(&*log); !s.ok()) return s;
    const int every = std::max(1, config_.checkpoint_every_cycles);
    Status checkpoint_error = Status::Ok();
    detail::aggregate_fleet(fleet, ofcs, result,
                            [&ofcs, &checkpoint_error, every](int cycle) {
                              if ((cycle + 1) % every != 0) return;
                              Status s = ofcs.checkpoint();
                              if (!s.ok() && checkpoint_error.ok()) {
                                checkpoint_error = s;
                              }
                            });
    if (!ofcs.recovery_error().ok()) return ofcs.recovery_error();
    if (!checkpoint_error.ok()) return checkpoint_error;
    util::MutexLock lock(mu_);
    stats_->duplicate_ops_dropped += ofcs.duplicate_ops_dropped();
    return Status::Ok();
  }

 private:
  void fire(const char* point, std::uint64_t scope) const {
    if (config_.plan != nullptr) config_.plan->fire(point, scope);
  }

  template <typename Counter>
  void count(Counter SupervisionStats::*counter) {
    util::MutexLock lock(mu_);
    ++(stats_->*counter);
  }

  const SupervisorConfig& config_;
  util::Mutex mu_;
  // Bumped from concurrent shard jobs; every counter is a sum, so the
  // totals do not depend on the order the jobs finish in.
  SupervisionStats* const stats_ TLC_PT_GUARDED_BY(mu_);
};

void remove_state_files(const SupervisorConfig& config,
                        const std::vector<detail::ShardSlice>& slices) {
  auto drop = [](const std::string& path) {
    (void)util::remove_file(path);
    (void)util::remove_file(path + ".tmp");
  };
  for (const detail::ShardSlice& slice : slices) {
    drop(checkpoint_path(config, "shard", slice.shard_index));
    drop(checkpoint_path(config, "settle", slice.shard_index));
  }
  drop(config.state_dir + "/ofcs.ckpt");
  drop(config.state_dir + "/ofcs.wal");
}

}  // namespace

Expected<SupervisedResult> run_supervised_fleet(
    const SupervisorConfig& config) {
  if (config.state_dir.empty()) {
    return Err("supervisor: state_dir must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.state_dir, ec);
  if (ec) return Err("supervisor: cannot create state_dir: " + ec.message());

  SupervisionStats stats;
  for (int incarnation = 0; incarnation < config.max_incarnations;
       ++incarnation) {
    ++stats.incarnations;
    if (config.plan != nullptr) config.plan->begin_incarnation();
    try {
      OnDiskDurability durability(config, stats);
      auto result = detail::drive_fleet(config.fleet, durability);
      if (!result) return Err(result.error());
      remove_state_files(config, detail::partition_shards(config.fleet));
      return SupervisedResult{std::move(*result), stats};
    } catch (const recovery::CrashException& crash) {
      ++stats.crashes;
      TLC_WARN("fleet") << "incarnation " << incarnation << " died at "
                        << crash.site.point << " scope " << crash.site.scope
                        << " hit " << crash.site.hit << "; restarting";
    } catch (const recovery::WedgeException& wedge) {
      // A wedge outside any shard job (an OFCS journal or checkpoint
      // write hung): the supervisor-level deadline fires and the
      // incarnation restarts wholesale.
      ++stats.wedges;
      TLC_WARN("fleet") << "incarnation " << incarnation << " wedged at "
                        << wedge.site.point << "; restarting";
    }
  }
  return Err("supervisor: incarnation budget exhausted");
}

}  // namespace tlc::fleet
