#include "fleet/shard.hpp"

#include <algorithm>
#include <cassert>

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
// stream — never ue.rng forks — so a zero adversary fraction consumes
// nothing and honest runs stay byte-identical to pre-§13 fleets.
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

}  // namespace

struct FleetShard::UeCtx {
  UeRecord record;
  testbed::ScenarioConfig scenario;  // lifted base, member applied
  std::uint32_t flow_id = 0;
  Rng rng{0};  // per-UE randomness root (seeded from member.seed)
  std::unique_ptr<sim::RadioChannel> radio;
  std::unique_ptr<epc::UeDevice> device;
  std::unique_ptr<workloads::TrafficSource> source;
  /// §13 bypass overlay riding on top of the normal app (nullptr for
  /// honest members).
  std::unique_ptr<workloads::TrafficSource> adversary_source;
  /// Counting points and cycle samplers (§5.4).
  std::unique_ptr<testbed::UeMeter> meter;
};

FleetShard::~FleetShard() = default;

epc::Imsi FleetShard::fleet_imsi(std::uint64_t ue_index) {
  return epc::Imsi{kFleetImsiBase + ue_index};
}

FleetShard::FleetShard(const FleetConfig& config, int shard_index,
                       std::uint64_t first_ue, std::size_t ue_count)
    : config_(config), shard_index_(shard_index) {
  enodeb_ = std::make_unique<epc::EnodeB>(
      sim_, config_.base.enodeb,
      sim::stream_rng(shard_seed(), kEnodebStream));
  mme_ = std::make_unique<epc::Mme>(sim_, hss_);
  epc::SpgwParams spgw_params;
  spgw_params.flow_based_charging = config_.adversary.flow_based_charging;
  spgw_ = std::make_unique<epc::Spgw>(sim_, *enodeb_, spgw_params);
  server_ = std::make_unique<testbed::EdgeServer>(sim_, *spgw_);
  spgw_->set_server_sink([this](epc::Imsi imsi, const sim::Packet& packet) {
    server_->deliver_uplink(imsi, packet);
  });

  // Operator's tamper-resilient monitor feed (§5.4), dispatched per
  // member.
  if (config_.base.enable_counter_check) {
    enodeb_->set_counter_check_handler(
        [this](epc::Imsi imsi, std::uint64_t ul, std::uint64_t dl,
               SimTime at) {
          auto it = by_imsi_.find(imsi);
          if (it == by_imsi_.end()) return;
          it->second->meter->on_counter_check(ul, dl, at);
        });
  }

  // EMM attach handling for the whole population.
  mme_->set_state_change_handler([this](epc::Imsi imsi, bool attached) {
    epc::UeDevice* device = nullptr;
    sim::RadioChannel* radio = nullptr;
    if (auto it = by_imsi_.find(imsi); it != by_imsi_.end()) {
      device = it->second->device.get();
      radio = it->second->radio.get();
    } else if (bg_ue_ && imsi == bg_ue_->imsi()) {
      device = bg_ue_.get();
      radio = bg_radio_.get();
    }
    if (device == nullptr) return;
    if (attached) {
      spgw_->create_session(imsi);
      enodeb_->add_ue(imsi, device, radio);
      device->set_attached(true);
    } else {
      spgw_->close_session(imsi);
      enodeb_->remove_ue(imsi);
      device->set_attached(false);
    }
  });

  for (std::size_t i = 0; i < ue_count; ++i) {
    build_ue(first_ue + i, kUeStreamBase + 2 * i);
  }
  build_background();

  // Initial attach: population order, then the background phone.
  for (const auto& ue : ues_) {
    const bool ok = mme_->register_ue(ue->record.imsi, ue->radio.get());
    assert(ok);
    (void)ok;
  }
  if (bg_ue_) {
    const bool ok = mme_->register_ue(bg_ue_->imsi(), bg_radio_.get());
    assert(ok);
    (void)ok;
  }
}

std::uint64_t FleetShard::shard_seed() const {
  const auto shard_stream = static_cast<std::uint64_t>(shard_index_);
  return sim::stream_seed(config_.seed, shard_stream);
}

void FleetShard::build_ue(std::uint64_t ue_index,
                          std::uint64_t member_stream) {
  auto owned = std::make_unique<UeCtx>();
  UeCtx& ue = *owned;
  ue.record.ue_index = ue_index;
  ue.record.imsi = fleet_imsi(ue_index);
  ue.flow_id = kFlowBase + static_cast<std::uint32_t>(ues_.size());

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
  ue.record.member = member;
  ue.scenario = testbed::lift_scenario(config_.base, member);
  ue.rng = Rng(member.seed);

  sim::RadioParams radio_params;
  radio_params.mean_rss_dbm = ue.scenario.mean_rss_dbm;
  radio_params.disconnect_ratio = ue.scenario.disconnect_ratio;
  radio_params.mean_outage_s = ue.scenario.mean_outage_s;
  radio_params.mobility = ue.scenario.mobility;
  ue.radio = std::make_unique<sim::RadioChannel>(radio_params, ue.rng.fork());
  ue.device = std::make_unique<epc::UeDevice>(
      sim_, ue.record.imsi, ue.scenario.device, ue.radio.get(),
      enodeb_.get(), ue.rng.fork());
  ue.device->set_traffic_stats_tamper(ue.scenario.edge_trafficstats_tamper);

  hss_.provision(epc::SubscriberProfile{ue.record.imsi, "fleet-member",
                                        ue.scenario.device});
  pcrf_.install_rule(ue.flow_id, testbed::app_qci(member.app));
  // Flow-identity binding (§13): the gateway knows which IMSI owns each
  // member flow, which is what lets it spot free-riders replaying one.
  spgw_->bind_flow(ue.flow_id, ue.record.imsi);

  ue.source = testbed::make_app_source(sim_, ue.scenario, ue.flow_id,
                                       ue.record.imsi, *ue.device, *server_,
                                       ue.rng);

  // §13 byzantine overlay. Role and generator randomness come from a
  // dedicated stream under the member's seed, guarded by enabled(): a
  // zero-adversary config draws nothing extra anywhere.
  if (config_.adversary.enabled()) {
    Rng adv_rng = sim::stream_rng(member.seed, kAdversaryStream);
    const double fraction =
        std::clamp(config_.adversary.fraction, 0.0, 1.0);
    if (adv_rng.chance(fraction)) {
      const auto& kinds = config_.adversary.kinds;
      ue.record.adversary = kinds[static_cast<std::size_t>(
          adv_rng.uniform_u64(kinds.size()))];
      const std::size_t idx = ues_.size();
      std::uint32_t overlay_flow =
          kAdversaryFlowBase + static_cast<std::uint32_t>(idx);
      switch (ue.record.adversary) {
        case workloads::AdversaryKind::kFreeRider:
          // Replay the previous member's flow identity. The shard's
          // first member has no one to rob and degrades to riding its
          // own flow — no replay, no leak, trivially bounded.
          overlay_flow =
              kFlowBase + static_cast<std::uint32_t>(idx == 0 ? 0 : idx - 1);
          break;
        case workloads::AdversaryKind::kZeroRatedAbuse:
          spgw_->set_zero_rated(overlay_flow);
          break;
        default:
          spgw_->bind_flow(overlay_flow, ue.record.imsi);
          break;
      }
      // Every overlay is uplink: it leaves through the device's bearer
      // and contends for the air like any app traffic.
      epc::UeDevice* device = ue.device.get();
      ue.adversary_source = workloads::make_adversary(
          ue.record.adversary, sim_,
          [device](const sim::Packet& p) { device->app_send(p); },
          overlay_flow, adv_rng.fork());
    }
  }

  // The §13 leak sampler is built only when the config has adversaries,
  // so honest fleets schedule no extra events and draw no extra forks.
  ue.meter = std::make_unique<testbed::UeMeter>(
      sim_, ue.scenario, ue.record.imsi, *ue.device, *server_, *spgw_, ue.rng,
      /*meter_uncharged=*/config_.adversary.enabled());

  by_imsi_.emplace(ue.record.imsi, &ue);
  ues_.push_back(std::move(owned));
}

void FleetShard::build_background() {
  if (config_.base.background_mbps <= 0.0) return;
  const epc::Imsi bg_imsi{kShardBackgroundImsiBase +
                          static_cast<std::uint64_t>(shard_index_)};
  Rng bg_rng = sim::stream_rng(shard_seed(), kBackgroundStream);

  sim::RadioParams bg_radio_params;
  bg_radio_params.mean_rss_dbm = -70.0;  // strong signal, never drops
  bg_radio_ =
      std::make_unique<sim::RadioChannel>(bg_radio_params, bg_rng.fork());
  bg_ue_ = std::make_unique<epc::UeDevice>(sim_, bg_imsi,
                                           epc::device_s7edge(),
                                           bg_radio_.get(), enodeb_.get(),
                                           bg_rng.fork());
  hss_.provision(
      epc::SubscriberProfile{bg_imsi, "background-phone", epc::device_s7edge()});
  pcrf_.install_rule(kBackgroundFlow, sim::Qci::kQci9);

  // Background congestion runs in the population's dominant direction;
  // with a mixed app population the downlink (where most fleet traffic
  // lives) is the congested side, matching the paper's iperf setup.
  bg_source_ = testbed::make_background_source(
      sim_, testbed::app_direction(config_.base.app),
      config_.base.background_mbps, kBackgroundFlow, bg_imsi, *bg_ue_, *spgw_,
      bg_rng);
}

const std::vector<UeRecord>& FleetShard::run() {
  if (ran_) return records_;
  ran_ = true;

  for (auto& ue : ues_) ue->meter->schedule_boundaries(*enodeb_);
  mme_->start();
  for (auto& ue : ues_) {
    ue->source->start(0);
    if (ue->adversary_source) ue->adversary_source->start(0);
  }
  if (bg_source_) bg_source_->start(0);

  const SimTime horizon =
      static_cast<SimTime>(config_.base.cycles) * config_.base.cycle_length +
      run_tail(config_.base.cycle_length);
  sim_.run_until(horizon);

  for (auto& ue : ues_) {
    ue->source->stop();
    if (ue->adversary_source) ue->adversary_source->stop();
  }
  if (bg_source_) bg_source_->stop();

  records_.reserve(ues_.size());
  for (auto& owned : ues_) {
    UeCtx& ue = *owned;
    ue.record.cycles = ue.meter->cycles();
    ue.record.uncharged_per_cycle = ue.meter->uncharged_per_cycle();
    ue.record.anomaly = spgw_->anomaly(ue.record.imsi);

    // Scheme evaluation rides the member's own seed stream, so the
    // outcome is independent of shard/thread scheduling by design.
    Rng scheme_rng = sim::stream_rng(ue.record.member.seed,
                                     kSchemeEvalStream);
    for (testbed::Scheme scheme :
         {testbed::Scheme::Legacy, testbed::Scheme::TlcOptimal,
          testbed::Scheme::TlcRandom}) {
      auto& outcomes = ue.record.outcomes[scheme];
      outcomes.reserve(ue.record.cycles.size());
      for (const testbed::CycleMeasurements& cycle : ue.record.cycles) {
        outcomes.push_back(testbed::evaluate_scheme(
            cycle, scheme, config_.base.plan_c, config_.base.cycle_length,
            scheme_rng));
      }
    }
    records_.push_back(std::move(ue.record));
  }
  return records_;
}

}  // namespace tlc::fleet
