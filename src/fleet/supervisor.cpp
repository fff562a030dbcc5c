#include "fleet/supervisor.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "fleet/engine_detail.hpp"
#include "fleet/thread_pool.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/state_log.hpp"
#include "transport/settlement_journal.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/serde.hpp"

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

// ---------------------------------------------------------------------
// State-file layout under config.state_dir.
// ---------------------------------------------------------------------

std::string shard_checkpoint_path(const SupervisorConfig& config, int shard) {
  return config.state_dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string settle_journal_path(const SupervisorConfig& config) {
  return config.state_dir + "/settle.wal";
}

// ---------------------------------------------------------------------
// Shard phase: run (or reuse) every shard under a per-shard wedge
// watchdog. Workers never touch shared state — each fills its own
// SliceOutcome slot, and the supervisor folds the slots in shard order
// after the join so stats are deterministic at any thread count.
// ---------------------------------------------------------------------

struct SliceOutcome {
  std::vector<UeRecord> records;
  int wedges = 0;
  int restarts = 0;
  bool reused_checkpoint = false;
  std::optional<recovery::CrashException> kill;
  Status error = Status::Ok();
};

SliceOutcome run_one_shard(const SupervisorConfig& config,
                           const detail::ShardSlice& slice) {
  SliceOutcome out;
  const auto scope = static_cast<std::uint64_t>(slice.shard_index);
  const std::string ckpt_path =
      shard_checkpoint_path(config, slice.shard_index);
  for (int attempt = 0;; ++attempt) {
    try {
      auto existing = recovery::read_checkpoint_if_present(ckpt_path);
      if (!existing) {
        out.error = Err(existing.error());
        return out;
      }
      if (existing->has_value()) {
        auto records = decode_shard_records(**existing);
        if (!records) {
          // The rename protocol never leaves a torn checkpoint, so a
          // corrupt one means the storage lied — surface it.
          out.error = Err(records.error());
          return out;
        }
        Status matches = check_shard_records(*records, slice, config.fleet);
        if (!matches.ok()) {
          out.error = matches;
          return out;
        }
        out.records = std::move(*records);
        out.reused_checkpoint = true;
        return out;
      }
      if (config.plan != nullptr) {
        config.plan->fire(recovery::kCrashShardRun, scope);
      }
      std::vector<UeRecord> records =
          detail::run_shard_slice(config.fleet, slice);
      if (config.plan != nullptr) {
        config.plan->fire(recovery::kCrashShardWedge, scope);
      }
      Status wrote = recovery::write_checkpoint(
          ckpt_path, encode_shard_records(records), config.plan, scope);
      if (!wrote.ok()) {
        out.error = wrote;
        return out;
      }
      out.records = std::move(records);
      return out;
    } catch (const recovery::WedgeException& wedge) {
      // Watchdog deadline: the shard hung, restart it from its last
      // checkpoint (i.e. from scratch — shards checkpoint only whole).
      ++out.wedges;
      ++out.restarts;
      TLC_WARN("fleet") << "shard " << slice.shard_index << " wedged at "
                        << wedge.site.point << ", restarting (attempt "
                        << (attempt + 1) << ")";
      if (attempt + 1 >= config.max_shard_retries) {
        out.error = Err("supervisor: shard wedged past the watchdog budget");
        return out;
      }
    } catch (const recovery::CrashException& crash) {
      out.kill = crash;
      return out;
    }
  }
}

// Runs the shard phase. Throws CrashException when any worker died;
// returns a Status error for non-crash failures.
Status run_shard_phase(const SupervisorConfig& config,
                       const std::vector<detail::ShardSlice>& slices,
                       SupervisionStats& stats, FleetResult& result) {
  std::vector<SliceOutcome> slots(slices.size());
  {
    ThreadPool pool(config.fleet.threads);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const detail::ShardSlice slice = slices[i];
      SliceOutcome* slot = &slots[i];
      pool.submit([&config, slice, slot] {
        *slot = run_one_shard(config, slice);
      });
    }
    pool.wait_idle();
  }

  // Fold stats first (in shard order), then report the death: every
  // kill in a dying incarnation replicates the same site, so throwing
  // the first one loses nothing.
  std::optional<recovery::CrashException> kill;
  Status error = Status::Ok();
  for (SliceOutcome& slot : slots) {
    stats.wedges += slot.wedges;
    stats.shard_restarts += slot.restarts;
    if (slot.reused_checkpoint) ++stats.shard_checkpoints_reused;
    if (slot.kill.has_value() && !kill.has_value()) kill = slot.kill;
    if (!slot.error.ok() && error.ok()) error = slot.error;
  }
  if (kill.has_value()) throw *kill;
  if (!error.ok()) return error;

  result.records.reserve(
      static_cast<std::size_t>(std::max(0, config.fleet.ue_count)));
  for (SliceOutcome& slot : slots) {
    for (UeRecord& record : slot.records) {
      result.records.push_back(std::move(record));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Settlement phase: chunks of whole UE groups, journaled as they
// finish, recovered chunks spliced back byte-for-byte.
// ---------------------------------------------------------------------

Status run_settle_phase(const SupervisorConfig& config,
                        SupervisionStats& stats, FleetResult& result) {
  const std::vector<core::SettlementItem> items =
      detail::settlement_items(result.records, config.fleet);

  auto journal = transport::SettlementJournal::open(
      settle_journal_path(config), config.plan, /*scope=*/0);
  if (!journal) return Err(journal.error());
  stats.settle_chunks_recovered += journal->recovered().size();

  // Chunk boundaries: groups of `settle_chunk_ues` consecutive whole
  // UE groups, derived from the (pure) item list — identical in every
  // incarnation, which is what makes chunk indices stable journal keys.
  const std::size_t chunk_ues = std::max<std::size_t>(1, config.settle_chunk_ues);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t i = 0; i < items.size();) {
    std::size_t j = i;
    for (std::size_t ues = 0; j < items.size() && ues < chunk_ues; ++ues) {
      const std::uint64_t ue = items[j].ue_id;
      while (j < items.size() && items[j].ue_id == ue) ++j;
    }
    chunks.emplace_back(i, j);
    i = j;
  }

  const core::RsaKeyCache keys(config.fleet.rsa_bits,
                               config.fleet.key_cache_slots,
                               detail::key_cache_seed(config.fleet));
  const core::BatchConfig batch = detail::make_batch_config(config.fleet);

  result.receipts.clear();
  result.receipts.reserve(items.size());
  for (std::size_t chunk_index = 0; chunk_index < chunks.size();
       ++chunk_index) {
    const auto recovered =
        journal->recovered().find(static_cast<std::uint32_t>(chunk_index));
    if (recovered != journal->recovered().end()) {
      result.receipts.insert(result.receipts.end(),
                             recovered->second.receipts.begin(),
                             recovered->second.receipts.end());
      result.coded_totals += recovered->second.coded;
      continue;
    }
    const auto [begin, end] = chunks[chunk_index];
    const std::vector<core::SettlementItem> chunk_items(
        items.begin() + static_cast<std::ptrdiff_t>(begin),
        items.begin() + static_cast<std::ptrdiff_t>(end));
    transport::LossyBatchReport report =
        detail::settle_batch(config.fleet, batch, keys, chunk_items,
                             config.fleet.threads, config.plan);
    Status journaled = journal->record_chunk(
        static_cast<std::uint32_t>(chunk_index), report.receipts,
        report.coded);
    if (!journaled.ok()) return journaled;
    result.receipts.insert(result.receipts.end(), report.receipts.begin(),
                           report.receipts.end());
    result.coded_totals += report.coded;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// One incarnation: shards → settlement → OFCS aggregation, resuming
// from whatever previous incarnations made durable.
// ---------------------------------------------------------------------

Expected<FleetResult> run_attempt(const SupervisorConfig& config,
                                  SupervisionStats& stats) {
  FleetResult result;
  const std::vector<detail::ShardSlice> slices =
      detail::partition_shards(config.fleet);
  if (slices.empty()) return result;

  Status shard_status = run_shard_phase(config, slices, stats, result);
  if (!shard_status.ok()) return Err(shard_status.error());

  detail::collect_gap_samples(result.records, result.gap_samples);

  if (config.fleet.settle) {
    Status settle_status = run_settle_phase(config, stats, result);
    if (!settle_status.ok()) return Err(settle_status.error());
  }

  auto log = recovery::StateLog::open(config.state_dir, "ofcs", config.plan,
                                      /*scope=*/0);
  if (!log) return Err(log.error());
  epc::Ofcs ofcs(detail::fleet_plan(config.fleet));
  Status attached = ofcs.attach_recovery(&*log);
  if (!attached.ok()) return Err(attached.error());

  const int every = std::max(1, config.checkpoint_every_cycles);
  Status checkpoint_error = Status::Ok();
  detail::aggregate_fleet(config.fleet, ofcs, result,
                          [&ofcs, &checkpoint_error, every](int cycle) {
                            if ((cycle + 1) % every != 0) return;
                            Status s = ofcs.checkpoint();
                            if (!s.ok() && checkpoint_error.ok()) {
                              checkpoint_error = s;
                            }
                          });
  if (!ofcs.recovery_error().ok()) {
    return Err(ofcs.recovery_error().error());
  }
  if (!checkpoint_error.ok()) return Err(checkpoint_error.error());
  stats.duplicate_ops_dropped += ofcs.duplicate_ops_dropped();

  detail::compute_digests(result);
  return result;
}

void remove_state_files(const SupervisorConfig& config,
                        const std::vector<detail::ShardSlice>& slices) {
  auto drop = [](const std::string& path) {
    (void)util::remove_file(path);
    (void)util::remove_file(path + ".tmp");
  };
  for (const detail::ShardSlice& slice : slices) {
    drop(shard_checkpoint_path(config, slice.shard_index));
  }
  drop(settle_journal_path(config));
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
      auto result = run_attempt(config, stats);
      if (!result) return Err(result.error());
      remove_state_files(config, detail::partition_shards(config.fleet));
      return SupervisedResult{std::move(*result), stats};
    } catch (const recovery::CrashException& crash) {
      ++stats.crashes;
      TLC_WARN("fleet") << "incarnation " << incarnation << " died at "
                        << crash.site.point << " scope " << crash.site.scope
                        << " hit " << crash.site.hit << "; restarting";
    } catch (const recovery::WedgeException& wedge) {
      // A wedge outside any shard (journal/checkpoint write hung):
      // the supervisor-level deadline fires and the incarnation
      // restarts wholesale.
      ++stats.wedges;
      TLC_WARN("fleet") << "incarnation " << incarnation << " wedged at "
                        << wedge.site.point << "; restarting";
    }
  }
  return Err("supervisor: incarnation budget exhausted");
}

}  // namespace tlc::fleet
