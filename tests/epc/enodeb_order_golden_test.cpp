// Service-order golden for the eNodeB scheduler.
//
// One congested cell with nine UEs carries random traffic on QCI 3, 7
// and 9 in both directions. Six UEs have outages (η = 0.2), every UE has
// some air loss, one UE is rate-limited, and one UE is detached with
// traffic queued and then reattached. The test pins a SHA-256 of the
// order in which the cell serves packets, and every EnodeB::Stats field.
// Any change to the scheduler's choice of the next packet (strict QCI
// priority, earliest enqueue first, skipping out-of-coverage UEs,
// out-of-order service inside a throttled UE, head-of-line delay-budget
// discard, flush on detach) moves the digest.
//
// The eNodeB does not say which packet the air lost, so each delivery
// record carries the running air-drop and delay-budget-drop counts: that
// pins the position of every drop in the service sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "epc/enodeb.hpp"
#include "util/bytes.hpp"

namespace tlc::epc {
namespace {

constexpr int kUes = 9;
constexpr Imsi kThrottled{3};
constexpr Imsi kDetached{5};

Imsi ue_imsi(std::int64_t i) { return Imsi{static_cast<std::uint64_t>(i)}; }

class RecordingUe final : public RrcEndpoint {
 public:
  RecordingUe(Imsi imsi, sim::Simulator& sim, const EnodeB& enodeb,
              std::string& log)
      : imsi_(imsi), sim_(sim), enodeb_(enodeb), log_(log) {}

  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return tx_; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return rx_; }
  void modem_deliver(const sim::Packet& packet) override {
    rx_ += packet.size_bytes;
    delivered_.push_back(packet.id);
    const auto& stats = enodeb_.stats();
    log_ += "D " + std::to_string(sim_.now()) + ' ' +
            std::to_string(imsi_.value) + ' ' + std::to_string(packet.id) +
            ' ' + std::to_string(stats.dl_air_drops) + ' ' +
            std::to_string(stats.dl_pdb_drops) + '\n';
  }
  void count_tx(std::uint32_t bytes) { tx_ += bytes; }

  [[nodiscard]] const std::vector<std::uint64_t>& delivered() const {
    return delivered_;
  }

 private:
  Imsi imsi_;
  sim::Simulator& sim_;
  const EnodeB& enodeb_;
  std::string& log_;
  std::uint64_t tx_ = 0;
  std::uint64_t rx_ = 0;
  std::vector<std::uint64_t> delivered_;
};

struct OrderGoldenFixture : public ::testing::Test {
  OrderGoldenFixture() : enodeb(sim, cell_params(), Rng(2)) {
    for (int i = 1; i <= kUes; ++i) {
      sim::RadioParams rp;
      rp.mean_rss_dbm = -88.0 - 2.0 * i;  // -90 .. -106 dBm
      rp.disconnect_ratio = i % 3 == 0 ? 0.0 : 0.2;
      rp.mean_outage_s = 1.0;
      radios.push_back(std::make_unique<sim::RadioChannel>(
          rp, Rng(100 + static_cast<std::uint64_t>(i))));
      ues.push_back(
          std::make_unique<RecordingUe>(ue_imsi(i), sim, enodeb, log));
      enodeb.add_ue(ue_imsi(i), ues.back().get(), radios.back().get());
    }
    enodeb.set_uplink_sink([this](Imsi imsi, const sim::Packet& p) {
      log += "U " + std::to_string(sim.now()) + ' ' +
             std::to_string(imsi.value) + ' ' + std::to_string(p.id) + ' ' +
             std::to_string(enodeb.stats().ul_air_drops) + '\n';
    });
    enodeb.set_counter_check_handler(
        [this](Imsi imsi, std::uint64_t ul, std::uint64_t dl, SimTime at) {
          log += "C " + std::to_string(at) + ' ' +
                 std::to_string(imsi.value) + ' ' + std::to_string(ul) +
                 ' ' + std::to_string(dl) + '\n';
        });
  }

  // A small congested cell: both directions are offered more than their
  // capacity, so every QCI queues and QCI 9 hits its drop-tail limit.
  static EnodebParams cell_params() {
    EnodebParams p;
    p.dl_capacity_bps = 4e6;
    p.ul_capacity_bps = 3e6;
    p.queue_limit_bytes = 48 << 10;
    return p;
  }

  RecordingUe& ue(Imsi imsi) { return *ues[imsi.value - 1]; }

  void submit(Imsi imsi, sim::Direction dir, sim::Qci qci,
              std::uint32_t bytes, std::uint64_t id) {
    sim::Packet p;
    p.id = id;
    p.size_bytes = bytes;
    p.direction = dir;
    p.qci = qci;
    p.created_at = sim.now();
    if (dir == sim::Direction::Downlink) {
      enodeb.downlink_submit(imsi, p);
    } else {
      ue(imsi).count_tx(bytes);
      enodeb.uplink_submit(imsi, p);
    }
  }

  // About 5 Mbps of downlink and 3.6 Mbps of uplink for 12 s, drawn up
  // front so the schedule does not depend on the eNodeB's own draws.
  void schedule_random_traffic() {
    Rng draw(7);
    for (std::uint64_t id = 1; id <= 16000; ++id) {
      const SimTime at = static_cast<SimTime>(
          draw.uniform_u64(static_cast<std::uint64_t>(12 * kSecond)));
      const Imsi imsi = ue_imsi(draw.uniform_int(1, kUes));
      const auto dir = draw.chance(0.58) ? sim::Direction::Downlink
                                         : sim::Direction::Uplink;
      const double u = draw.uniform();
      const sim::Qci qci = u < 0.2   ? sim::Qci::kQci3
                           : u < 0.5 ? sim::Qci::kQci7
                                     : sim::Qci::kQci9;
      const auto bytes = static_cast<std::uint32_t>(draw.uniform_int(80, 1400));
      sim.schedule_at(at, [this, imsi, dir, qci, bytes, id] {
        submit(imsi, dir, qci, bytes, id);
      });
    }
  }

  [[nodiscard]] std::string digest() const {
    return to_hex(crypto::sha256(bytes_of(log)));
  }

  sim::Simulator sim;
  std::string log;
  EnodeB enodeb;
  std::vector<std::unique_ptr<sim::RadioChannel>> radios;
  std::vector<std::unique_ptr<RecordingUe>> ues;
};

TEST_F(OrderGoldenFixture, ServiceOrderAndStatsArePinned) {
  enodeb.set_rate_limit(kThrottled, 64000.0);
  schedule_random_traffic();

  // Detach a UE with traffic queued, then reattach it; what it is sent
  // while detached dies at the eNodeB.
  std::uint64_t flushed_at_detach = 0;
  sim.schedule_at(6 * kSecond, [&] {
    enodeb.remove_ue(kDetached);
    flushed_at_detach = enodeb.stats().dl_flushed;
  });
  sim.schedule_at(6 * kSecond + 500 * kMillisecond, [&] {
    enodeb.add_ue(kDetached, &ue(kDetached), radios[4].get());
  });

  // The throttled UE's uplink backlog shares its token bucket and drains
  // by about 30 s. Its bucket restarts empty at 32 s; a large packet is
  // then queued ahead of a small one, and the small one fits the bucket
  // first and overtakes it.
  constexpr std::uint64_t kLarge = 20001;
  constexpr std::uint64_t kSmall = 20002;
  sim.schedule_at(32 * kSecond, [&] {
    enodeb.set_rate_limit(kThrottled, 64000.0);
    submit(kThrottled, sim::Direction::Downlink, sim::Qci::kQci9, 1400,
           kLarge);
  });
  sim.schedule_at(32 * kSecond + 10 * kMillisecond, [&] {
    submit(kThrottled, sim::Direction::Downlink, sim::Qci::kQci9, 120,
           kSmall);
  });

  // Operator-side COUNTER CHECKs every 2 s.
  for (int s = 2; s <= 16; s += 2) {
    sim.schedule_at(s * kSecond, [this] {
      for (int i = 1; i <= kUes; ++i) enodeb.request_counter_check(ue_imsi(i));
    });
  }
  sim.run_until(40 * kSecond);

  // The scenario exercises what it claims to.
  const auto& stats = enodeb.stats();
  EXPECT_GT(flushed_at_detach, 0u);
  EXPECT_GT(stats.dl_air_drops, 0u);
  EXPECT_GT(stats.dl_pdb_drops, 0u);
  EXPECT_GT(stats.dl_queue_drops, 0u);
  EXPECT_GT(stats.ul_queue_drops, 0u);
  const auto& order = ue(kThrottled).delivered();
  const auto large = std::find(order.begin(), order.end(), kLarge);
  const auto small = std::find(order.begin(), order.end(), kSmall);
  ASSERT_NE(large, order.end());
  ASSERT_NE(small, order.end());
  EXPECT_LT(small - order.begin(), large - order.begin());

  EXPECT_EQ(stats.dl_delivered, 5447u);
  EXPECT_EQ(stats.dl_queue_drops, 1643u);
  EXPECT_EQ(stats.dl_air_drops, 842u);
  EXPECT_EQ(stats.dl_pdb_drops, 1319u);
  EXPECT_EQ(stats.dl_flushed, 2u);
  EXPECT_EQ(stats.ul_delivered, 1953u);
  EXPECT_EQ(stats.ul_queue_drops, 4411u);
  EXPECT_EQ(stats.ul_air_drops, 317u);
  EXPECT_EQ(stats.rrc_setups, 11u);
  EXPECT_EQ(stats.rrc_releases, 9u);
  EXPECT_EQ(stats.counter_checks, 66u);
  EXPECT_EQ(digest(),
            "58a7098296238636c5159ab2031d821ca0c22dbd2ece92c30bc9a8d7922a33ef");
}

}  // namespace
}  // namespace tlc::epc
