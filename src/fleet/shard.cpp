#include "fleet/shard.hpp"

#include <algorithm>

#include "sim/rng_stream.hpp"

namespace tlc::fleet {
namespace {

// Shard seed-stream layout (indices into the shard's StreamSeeder).
// Each UE owns two streams: profile draws and its world seed.
constexpr std::uint64_t kEnodebStream = 1;
constexpr std::uint64_t kBackgroundStream = 2;
constexpr std::uint64_t kUeStreamBase = 16;

// Stream under a member's seed used for scheme evaluation draws.
constexpr std::uint64_t kSchemeEvalStream = 0xe7a1;

// Stream under a member's seed for the §13 byzantine overlay: the
// adversary role draw and the generator's own randomness. A dedicated
// stream — never forks of the member's world Rng — so a zero adversary
// fraction consumes nothing and honest runs stay byte-identical to
// pre-§13 fleets.
constexpr std::uint64_t kAdversaryStream = 0xadb5;

constexpr std::uint32_t kFlowBase = 100;
constexpr std::uint32_t kBackgroundFlow = 1;
// Overlay flows live far above the member flow range so an adversary's
// own flow can never collide with a victim's.
constexpr std::uint32_t kAdversaryFlowBase = 1u << 20;
constexpr std::uint64_t kFleetImsiBase = 310170000000000ull;
constexpr std::uint64_t kShardBackgroundImsiBase = 460110000000000ull;

// How far the shard must simulate past the last nominal boundary: the
// worst-case skewed boundary plus a margin for counter-check exchanges
// and in-flight deliveries. Everything recorded — sampler snapshots,
// counter checks, gateway volumes — happens at or before the last
// skewed boundary, so simulating the rest of the fixed 50 s grace was
// pure wasted work (it dominated short-cycle configs: a 2 s × 2 fleet
// spent 50 of 54 simulated seconds on traffic nothing ever read).
SimTime run_tail(SimTime cycle_length) {
  return std::min<SimTime>(
      testbed::kBoundaryGrace,
      testbed::max_boundary_offset(cycle_length) + kSecond);
}

epc::SpgwParams gateway_params(const FleetConfig& config) {
  epc::SpgwParams params;
  params.flow_based_charging = config.adversary.flow_based_charging;
  return params;
}

}  // namespace

std::vector<workloads::AdversaryKind> all_adversary_kinds() {
  using workloads::AdversaryKind;
  return {AdversaryKind::kIcmpTunnel, AdversaryKind::kDnsTunnel,
          AdversaryKind::kZeroRatedAbuse, AdversaryKind::kFreeRider,
          AdversaryKind::kVolumeShaper};
}

epc::Imsi FleetShard::fleet_imsi(std::uint64_t ue_index) {
  return epc::Imsi{kFleetImsiBase + ue_index};
}

FleetShard::FleetShard(const FleetConfig& config, int shard_index,
                       std::uint64_t first_ue, std::size_t ue_count)
    : config_(config),
      shard_index_(shard_index),
      cell_(config_.base, sim::stream_rng(shard_seed(), kEnodebStream),
            gateway_params(config_)) {
  records_.reserve(ue_count);
  for (std::size_t i = 0; i < ue_count; ++i) {
    add_member(first_ue + i, kUeStreamBase + 2 * i);
  }
  add_background();
}

std::uint64_t FleetShard::shard_seed() const {
  const auto shard_stream = static_cast<std::uint64_t>(shard_index_);
  return sim::stream_seed(config_.seed, shard_stream);
}

void FleetShard::add_member(std::uint64_t ue_index,
                            std::uint64_t member_stream) {
  const std::size_t idx = records_.size();
  UeRecord& record = records_.emplace_back();
  record.ue_index = ue_index;
  record.imsi = fleet_imsi(ue_index);
  const std::uint32_t flow_id = kFlowBase + static_cast<std::uint32_t>(idx);

  // Member profile drawn from the shard's per-UE stream; the world seed
  // comes from the adjacent stream so profile draws never consume world
  // randomness.
  Rng profile_rng = sim::stream_rng(shard_seed(), member_stream);
  testbed::FleetMember member;
  member.app = config_.app_mix.empty()
                   ? config_.base.app
                   : config_.app_mix[static_cast<std::size_t>(
                         profile_rng.uniform_u64(config_.app_mix.size()))];
  member.mean_rss_dbm = profile_rng.chance(config_.weak_signal_fraction)
                            ? config_.weak_signal_rss_dbm
                            : config_.base.mean_rss_dbm;
  member.disconnect_ratio =
      profile_rng.chance(config_.intermittent_fraction)
          ? config_.intermittent_eta
          : config_.base.disconnect_ratio;
  member.mobility_speed_mps = config_.base.mobility.speed_mps;
  member.seed = sim::stream_seed(shard_seed(), member_stream + 1);
  record.member = member;
  const testbed::ScenarioConfig scenario =
      testbed::lift_scenario(config_.base, member);

  // The member's world: radio, device, app source and meter fork its
  // seed in that order.
  Rng rng(member.seed);
  Rng radio_rng = rng.fork();
  Rng device_rng = rng.fork();
  testbed::CellUe& ue = cell_.add_ue(record.imsi, scenario, flow_id,
                                     radio_rng, device_rng, rng);
  // Flow-identity binding (§13): the gateway knows which IMSI owns each
  // member flow, which is what lets it spot free-riders replaying one.
  epc::Spgw& spgw = cell_.spgw();
  spgw.bind_flow(flow_id, record.imsi);

  // §13 byzantine overlay. Role and generator randomness come from a
  // dedicated stream under the member's seed, guarded by enabled(): a
  // zero-adversary config draws nothing extra anywhere.
  if (config_.adversary.enabled()) {
    Rng adv_rng = sim::stream_rng(member.seed, kAdversaryStream);
    const double fraction =
        std::clamp(config_.adversary.fraction, 0.0, 1.0);
    if (adv_rng.chance(fraction)) {
      const auto& kinds = config_.adversary.kinds;
      record.adversary = kinds[static_cast<std::size_t>(
          adv_rng.uniform_u64(kinds.size()))];
      std::uint32_t overlay_flow =
          kAdversaryFlowBase + static_cast<std::uint32_t>(idx);
      switch (record.adversary) {
        case workloads::AdversaryKind::kFreeRider:
          // Replay the previous member's flow identity. The shard's
          // first member has no one to rob and degrades to riding its
          // own flow — no replay, no leak, trivially bounded.
          overlay_flow =
              kFlowBase + static_cast<std::uint32_t>(idx == 0 ? 0 : idx - 1);
          break;
        case workloads::AdversaryKind::kZeroRatedAbuse:
          spgw.set_zero_rated(overlay_flow);
          break;
        default:
          spgw.bind_flow(overlay_flow, record.imsi);
          break;
      }
      // Every overlay is uplink: it leaves through the device's bearer
      // and contends for the air like any app traffic.
      epc::UeDevice* device = ue.device.get();
      ue.sources.push_back(workloads::make_adversary(
          record.adversary, cell_.sim(),
          [device](const sim::Packet& p) { device->app_send(p); },
          overlay_flow, adv_rng.fork()));
    }
  }

  // The §13 leak sampler is built only when the config has adversaries,
  // so honest fleets schedule no extra events and draw no extra forks.
  cell_.add_meter(ue, scenario, rng,
                  /*meter_uncharged=*/config_.adversary.enabled());
}

void FleetShard::add_background() {
  if (config_.base.background_mbps <= 0.0) return;
  const epc::Imsi bg_imsi{kShardBackgroundImsiBase +
                          static_cast<std::uint64_t>(shard_index_)};
  Rng bg_rng = sim::stream_rng(shard_seed(), kBackgroundStream);
  Rng radio_rng = bg_rng.fork();
  Rng device_rng = bg_rng.fork();
  // Background congestion runs in the population's dominant direction;
  // with a mixed app population the downlink (where most fleet traffic
  // lives) is the congested side, matching the paper's iperf setup.
  cell_.add_background_phone(bg_imsi, kBackgroundFlow, config_.base,
                             radio_rng, device_rng, bg_rng);
}

const std::vector<UeRecord>& FleetShard::run() {
  if (ran_) return records_;
  ran_ = true;

  cell_.run(static_cast<SimTime>(config_.base.cycles) *
                config_.base.cycle_length +
            run_tail(config_.base.cycle_length));

  for (std::size_t i = 0; i < records_.size(); ++i) {
    UeRecord& record = records_[i];
    const testbed::UeMeter& meter = *cell_.ues()[i].meter;
    record.cycles = meter.cycles();
    record.uncharged_per_cycle = meter.uncharged_per_cycle();
    record.anomaly = cell_.spgw().anomaly(record.imsi);

    // Scheme evaluation rides the member's own seed stream, so the
    // outcome is independent of shard/thread scheduling by design.
    Rng scheme_rng = sim::stream_rng(record.member.seed, kSchemeEvalStream);
    record.outcomes = testbed::evaluate_schemes(
        record.cycles,
        {testbed::Scheme::Legacy, testbed::Scheme::TlcOptimal,
         testbed::Scheme::TlcRandom},
        config_.base.plan_c, config_.base.cycle_length, scheme_rng);
  }
  return records_;
}

}  // namespace tlc::fleet
