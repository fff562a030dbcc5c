// Zero-adversary identity (DESIGN.md §13 acceptance gate): with the
// adversary mix disabled — the default — a fleet must be byte-identical
// to the pre-§13 build. The goldens below were captured from the seed
// commit (before any adversarial code existed) with the exact config
// used here; the overlay, the detectors and the uncharged sampler are
// all gated so an honest run draws no extra randomness and schedules no
// extra events, and this test is the proof.
#include <gtest/gtest.h>

#include <string>

#include "fleet/engine.hpp"
#include "util/bytes.hpp"

namespace tlc::fleet {
namespace {

struct Golden {
  const char* label;
  bool counter_check;
  double background_mbps;
  const char* measurement;
  const char* cdf;
  const char* poc;
  std::uint64_t billed;
};

// The first input is the seed-commit golden. The second turns off the
// RRC COUNTER CHECK (the operator reads the TrafficStats monitor) and
// the background phone; its goldens were captured before the shard
// world moved into testbed::Cell.
constexpr Golden kGoldens[] = {
    {"counter-check+bg", true, 1.0,
     "88b0c0c628792b9c61aad304965a8e3071a7e894140fcb5f0a0837d81bda4f61",
     "6b4621817e626a2bba56b00964e4c78ca3a6c20052031db139a6780324c35496",
     "7d36836d6185906e1e97ce97d9458938c94d3198fdd1271966743593782015a9",
     92597239},
    {"trafficstats-no-bg", false, 0.0,
     "074f7f628a0a553312f2969dad64d75bb19ee8a8be2bef899b828c268f027385",
     "20ab04ddfa9e8ae5dce5cf8302303308892e52c21f79152b618731192e93cfe9",
     "9d35177ac455268cffd6d14111503265156ab97a2f34a404947a752a359d61db",
     93283154},
};

FleetConfig identity_fleet(unsigned threads) {
  FleetConfig config;
  config.base.cycle_length = 8 * kSecond;
  config.base.cycles = 2;
  config.base.background_mbps = 1.0;
  config.ue_count = 16;
  config.shards = 2;
  config.threads = threads;
  config.seed = 0x9051;
  config.rsa_bits = 512;
  config.key_cache_slots = 4;
  return config;
}

TEST(ZeroAdversaryIdentityTest, DigestsMatchSeedGoldensAtAnyThreadCount) {
  for (const Golden& golden : kGoldens) {
    for (unsigned threads : {1u, 2u, 4u}) {
      FleetConfig config = identity_fleet(threads);
      config.base.enable_counter_check = golden.counter_check;
      config.base.background_mbps = golden.background_mbps;
      const FleetResult result = run_fleet(config);
      const std::string label =
          std::string(golden.label) + " t" + std::to_string(threads);
      EXPECT_EQ(to_hex(result.measurement_digest), golden.measurement)
          << label;
      EXPECT_EQ(to_hex(result.cdf_digest), golden.cdf) << label;
      EXPECT_EQ(to_hex(result.poc_digest), golden.poc) << label;
      EXPECT_EQ(result.totals.billed_bytes, golden.billed) << label;
    }
  }
}

TEST(ZeroAdversaryIdentityTest, HonestFleetHasNoAnomalyFootprint) {
  const FleetResult result = run_fleet(identity_fleet(2));
  EXPECT_EQ(result.totals.uncharged_bytes, 0u);
  EXPECT_EQ(result.totals.flagged_subscribers, 0u);
  for (const UeRecord& record : result.records) {
    EXPECT_EQ(record.adversary, workloads::AdversaryKind::kNone);
    // The volume histograms legitimately count honest traffic; every
    // bypass-class counter and flag must be exactly zero.
    const epc::AnomalyCounters& a = record.anomaly;
    EXPECT_EQ(a.flags, 0u);
    EXPECT_EQ(a.uncharged_bytes(), 0u);
    EXPECT_EQ(a.free_packets, 0u);
    EXPECT_EQ(a.replayed_bytes, 0u);
    EXPECT_EQ(a.protocol_bytes[static_cast<std::size_t>(
                  sim::Protocol::kIcmp)],
              0u);
    EXPECT_EQ(a.protocol_bytes[static_cast<std::size_t>(sim::Protocol::kDns)],
              0u);
    for (std::uint64_t leak : record.uncharged_per_cycle) {
      EXPECT_EQ(leak, 0u);
    }
  }
}

}  // namespace
}  // namespace tlc::fleet
