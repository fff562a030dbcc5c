// Byzantine fleets at scale (DESIGN.md §13): the adversary overlay must
// keep the fleet determinism contract — all digests (including the new
// anomaly digest) byte-identical across thread counts and across the
// detached vs supervised paths — while the gateway's detector totals
// surface through the OFCS.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "fleet/engine.hpp"
#include "fleet/supervisor.hpp"
#include "util/bytes.hpp"

namespace tlc::fleet {
namespace {

FleetConfig byzantine_fleet(unsigned threads) {
  FleetConfig config;
  config.base.cycle_length = 4 * kSecond;
  config.base.cycles = 2;
  config.base.background_mbps = 1.0;
  config.ue_count = 16;
  config.shards = 2;
  config.threads = threads;
  config.seed = 0x6057;
  config.rsa_bits = 512;
  config.key_cache_slots = 4;
  config.adversary.fraction = 0.6;
  return config;
}

void expect_identical(const FleetResult& got, const FleetResult& want,
                      const std::string& label) {
  ASSERT_FALSE(want.measurement_digest.empty()) << label;
  EXPECT_EQ(to_hex(got.measurement_digest), to_hex(want.measurement_digest))
      << label;
  EXPECT_EQ(to_hex(got.cdf_digest), to_hex(want.cdf_digest)) << label;
  EXPECT_EQ(to_hex(got.poc_digest), to_hex(want.poc_digest)) << label;
  EXPECT_EQ(to_hex(got.anomaly_digest), to_hex(want.anomaly_digest)) << label;
  EXPECT_EQ(got.totals.billed_bytes, want.totals.billed_bytes) << label;
  EXPECT_EQ(got.totals.uncharged_bytes, want.totals.uncharged_bytes) << label;
  EXPECT_EQ(got.totals.flagged_subscribers, want.totals.flagged_subscribers)
      << label;
}

TEST(FleetAdversarialTest, ByzantineFleetIsThreadCountInvariant) {
  const FleetResult reference = run_fleet(byzantine_fleet(1));

  // The population actually carries adversaries, some of which leak and
  // some of which the gateway flags — otherwise the determinism claim
  // is vacuous.
  std::size_t adversaries = 0;
  for (const UeRecord& record : reference.records) {
    if (record.adversary != workloads::AdversaryKind::kNone) ++adversaries;
  }
  ASSERT_GT(adversaries, 0u);
  ASSERT_LT(adversaries, reference.records.size());
  EXPECT_GT(reference.totals.uncharged_bytes, 0u);
  EXPECT_GT(reference.totals.flagged_subscribers, 0u);

  for (unsigned threads : {2u, 4u, 8u}) {
    expect_identical(run_fleet(byzantine_fleet(threads)), reference,
                     "byzantine t" + std::to_string(threads));
  }
}

// Pinned constants, not a run-against-run comparison: a change that
// shifted the byzantine fleet's draws the same way at every thread count
// would pass the invariance test above but not this one. Captured before
// the shard world moved into testbed::Cell.
TEST(FleetAdversarialTest, ByzantineFleetMatchesPinnedDigests) {
  const FleetResult result = run_fleet(byzantine_fleet(1));
  EXPECT_EQ(to_hex(result.measurement_digest),
            "2af62f08a3cb2cee1f6ca38b27830a8f3574f8b48b895036d4f8b182adc42a02");
  EXPECT_EQ(to_hex(result.cdf_digest),
            "8a863b9d461dd7d73113d19d1a61e1189d8d76064865650f1fbca703c8f960ee");
  EXPECT_EQ(to_hex(result.poc_digest),
            "149821c0343a1f74d9ae8ab300bbb4460fd2420c543926cadf94a17de50616d2");
  EXPECT_EQ(to_hex(result.anomaly_digest),
            "e5ce0069c7c5187d1be645d46266a2676846ba690adee94ee6fa1b7065c2972a");
  EXPECT_EQ(result.totals.billed_bytes, 56691286u);
}

TEST(FleetAdversarialTest, DetachedMatchesSupervised) {
  const FleetResult reference = run_fleet(byzantine_fleet(2));
  for (unsigned threads : {1u, 4u}) {
    SupervisorConfig config;
    config.fleet = byzantine_fleet(threads);
    config.state_dir =
        ::testing::TempDir() + "/byzantine_t" + std::to_string(threads);
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value())
        << (supervised.has_value() ? "" : supervised.error());
    expect_identical(supervised->result, reference,
                     "supervised t" + std::to_string(threads));
  }
}

TEST(FleetAdversarialTest, OfcsTotalsMatchPerRecordLeaks) {
  const FleetResult result = run_fleet(byzantine_fleet(2));
  // The OFCS uncharged total is fed by the synthetic CDR audit fields,
  // so it must reconcile exactly with the per-record samples the shards
  // measured.
  std::uint64_t leaked = 0;
  for (const UeRecord& record : result.records) {
    leaked += std::accumulate(record.uncharged_per_cycle.begin(),
                              record.uncharged_per_cycle.end(),
                              std::uint64_t{0});
  }
  EXPECT_EQ(result.totals.uncharged_bytes, leaked);
  EXPECT_GT(leaked, 0u);

  // Honest members never leak and are never flagged.
  for (const UeRecord& record : result.records) {
    if (record.adversary != workloads::AdversaryKind::kNone) continue;
    EXPECT_EQ(record.anomaly.flags, 0u) << "ue " << record.ue_index;
    EXPECT_EQ(record.anomaly.uncharged_bytes(), 0u) << "ue " << record.ue_index;
  }
}

}  // namespace
}  // namespace tlc::fleet
