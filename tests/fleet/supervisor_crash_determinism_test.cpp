// Crash-recovery determinism soak (ISSUE: recovery satellite): the
// supervised fleet must produce a FleetResult byte-identical to the
// crash-free `run_fleet` under ~100 seeded crash plans — kills and
// wedges at any instrumented boundary, at any thread count, over both
// the lossless and the fault-injected settlement transport. Billed
// bytes match exactly: no byte billed twice, no settled cycle lost.
#include "fleet/supervisor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "fleet/engine.hpp"
#include "recovery/crash_plan.hpp"
#include "util/bytes.hpp"

namespace tlc::fleet {
namespace {

FleetConfig soak_fleet(unsigned threads, bool lossy) {
  FleetConfig config;
  config.base.cycle_length = 15 * kSecond;
  config.base.cycles = 2;
  config.base.background_mbps = 2.0;
  config.ue_count = 6;
  config.shards = 3;
  config.threads = threads;
  config.seed = 0xc4a5;
  config.rsa_bits = 512;
  config.key_cache_slots = 2;
  config.lossy_transport = lossy;
  if (lossy) {
    config.transport.seed = 0x105e;
    config.transport.to_edge.drop = 0.10;
    config.transport.to_operator.corrupt = 0.05;
  }
  return config;
}

/// The §17 axis: same faults, but receipts ride the RLNC-coded
/// transfer, so crash plans can also land on the coded-packet points.
FleetConfig coded_soak_fleet(unsigned threads) {
  FleetConfig config = soak_fleet(threads, true);
  config.transport.coding = transport::Coding::Rlnc;
  config.transport.coded.generation_size = 8;
  config.transport.coded.chunk_bytes = 48;
  return config;
}

/// Full bit-identity check between a supervised result and the
/// crash-free reference.
void expect_identical(const FleetResult& got, const FleetResult& want,
                      const std::string& label) {
  EXPECT_EQ(to_hex(got.measurement_digest), to_hex(want.measurement_digest))
      << label;
  EXPECT_EQ(to_hex(got.cdf_digest), to_hex(want.cdf_digest)) << label;
  EXPECT_EQ(to_hex(got.poc_digest), to_hex(want.poc_digest)) << label;
  EXPECT_EQ(got.totals.billed_bytes, want.totals.billed_bytes) << label;
  EXPECT_EQ(got.totals.amount_micro, want.totals.amount_micro) << label;
  EXPECT_EQ(got.totals.subscribers, want.totals.subscribers) << label;
  EXPECT_EQ(got.settlement_totals, want.settlement_totals) << label;
  EXPECT_TRUE(got.coded_totals == want.coded_totals) << label;
  ASSERT_EQ(got.bills.size(), want.bills.size()) << label;
  for (std::size_t cycle = 0; cycle < want.bills.size(); ++cycle) {
    ASSERT_EQ(got.bills[cycle].size(), want.bills[cycle].size()) << label;
    for (std::size_t i = 0; i < want.bills[cycle].size(); ++i) {
      const auto& [imsi_got, line_got] = got.bills[cycle][i];
      const auto& [imsi_want, line_want] = want.bills[cycle][i];
      EXPECT_EQ(imsi_got.value, imsi_want.value) << label;
      EXPECT_EQ(line_got.billed_volume, line_want.billed_volume)
          << label << " cycle " << cycle << " imsi " << imsi_want.value;
      EXPECT_EQ(line_got.amount_micro, line_want.amount_micro) << label;
      EXPECT_EQ(line_got.throttled, line_want.throttled) << label;
    }
  }
}

std::string state_dir_for(const char* tag, std::uint64_t seed) {
  return ::testing::TempDir() + "/sup_" + tag + "_" + std::to_string(seed);
}

class SupervisorCrashDeterminismTest : public ::testing::Test {
 protected:
  // One crash-free reference per (transport, threads) flavour; the
  // soak loops compare every supervised run against these.
  static void SetUpTestSuite() {
    lossless_ = new FleetResult(run_fleet(soak_fleet(4, false)));
    lossy_ = new FleetResult(run_fleet(soak_fleet(4, true)));
    coded_ = new FleetResult(run_fleet(coded_soak_fleet(4)));
  }
  static void TearDownTestSuite() {
    delete lossless_;
    delete lossy_;
    delete coded_;
    lossless_ = lossy_ = coded_ = nullptr;
  }

  static FleetResult* lossless_;
  static FleetResult* lossy_;
  static FleetResult* coded_;
};

FleetResult* SupervisorCrashDeterminismTest::lossless_ = nullptr;
FleetResult* SupervisorCrashDeterminismTest::lossy_ = nullptr;
FleetResult* SupervisorCrashDeterminismTest::coded_ = nullptr;

TEST_F(SupervisorCrashDeterminismTest, CrashFreeSupervisedRunMatchesRunFleet) {
  SupervisorConfig config;
  config.fleet = soak_fleet(4, false);
  config.state_dir = state_dir_for("crashfree", 0);
  auto supervised = run_supervised_fleet(config);
  ASSERT_TRUE(supervised.has_value()) << supervised.error();
  expect_identical(supervised->result, *lossless_, "crash-free");
  EXPECT_EQ(supervised->stats.incarnations, 1);
  EXPECT_EQ(supervised->stats.crashes, 0);
}

TEST_F(SupervisorCrashDeterminismTest, SeededPlansLossless) {
  // The bulk of the soak: 60 seeded plans over the lossless transport
  // at 4 worker threads.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    recovery::CrashPlan plan;
    plan.arm_seeded(seed, /*crashes=*/3, /*scopes=*/6, /*max_hit=*/4);
    SupervisorConfig config;
    config.fleet = soak_fleet(4, false);
    config.state_dir = state_dir_for("lossless", seed);
    config.plan = &plan;
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value())
        << "seed " << seed << ": " << supervised.error();
    expect_identical(supervised->result, *lossless_,
                     "lossless seed " + std::to_string(seed));
    EXPECT_GE(supervised->stats.incarnations, 1) << "seed " << seed;
  }
}

TEST_F(SupervisorCrashDeterminismTest, SeededPlansSingleThreaded) {
  // Thread-count independence under crashes: single worker, same
  // reference result as the 4-thread baseline.
  for (std::uint64_t seed = 61; seed <= 80; ++seed) {
    recovery::CrashPlan plan;
    plan.arm_seeded(seed, /*crashes=*/2, /*scopes=*/6, /*max_hit=*/3);
    SupervisorConfig config;
    config.fleet = soak_fleet(1, false);
    config.state_dir = state_dir_for("single", seed);
    config.plan = &plan;
    config.settle_chunk_ues = 2;  // more chunk boundaries to resume at
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value())
        << "seed " << seed << ": " << supervised.error();
    expect_identical(supervised->result, *lossless_,
                     "single-thread seed " + std::to_string(seed));
  }
}

TEST_F(SupervisorCrashDeterminismTest, SeededPlansLossyTransport) {
  // Crashes layered on top of injected transport faults: retries and
  // degradations must still replay bit-identically from the journal.
  for (std::uint64_t seed = 81; seed <= 100; ++seed) {
    recovery::CrashPlan plan;
    plan.arm_seeded(seed, /*crashes=*/2, /*scopes=*/6, /*max_hit=*/3);
    SupervisorConfig config;
    config.fleet = soak_fleet(4, true);
    config.state_dir = state_dir_for("lossy", seed);
    config.plan = &plan;
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value())
        << "seed " << seed << ": " << supervised.error();
    expect_identical(supervised->result, *lossy_,
                     "lossy seed " + std::to_string(seed));
  }
}

TEST_F(SupervisorCrashDeterminismTest, SeededPlansCodedTransport) {
  // The coded-transport plan axis: seeded kills and wedges can now
  // also land on the coded-packet points, and the supervised result
  // must still replay bit-identically — coded census included.
  for (std::uint64_t seed = 101; seed <= 115; ++seed) {
    recovery::CrashPlan plan;
    plan.arm_seeded(seed, /*crashes=*/2, /*scopes=*/6, /*max_hit=*/3);
    SupervisorConfig config;
    config.fleet = coded_soak_fleet(4);
    config.state_dir = state_dir_for("coded", seed);
    config.plan = &plan;
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value())
        << "seed " << seed << ": " << supervised.error();
    expect_identical(supervised->result, *coded_,
                     "coded seed " + std::to_string(seed));
  }
  // The reference itself must have exercised the coded path.
  EXPECT_GT(coded_->coded_totals.cycles_coded, 0u);
}

TEST_F(SupervisorCrashDeterminismTest, KillAtCodedPacketPointsConverges) {
  // Direct hits on the §17.4 points: the receiving endpoint dies
  // around a coded packet's journal append, the incarnation restarts,
  // and the re-settled chunk splices in bit-identically.
  std::uint64_t tag = 300;
  for (const char* point :
       {recovery::kCrashCodedPacketPre, recovery::kCrashCodedPacketPost}) {
    recovery::CrashPlan plan;
    plan.arm({point, /*scope=*/1, /*hit=*/2, recovery::CrashKind::Kill});
    SupervisorConfig config;
    config.fleet = coded_soak_fleet(2);
    config.state_dir = state_dir_for("coded_point", tag++);
    config.plan = &plan;
    auto supervised = run_supervised_fleet(config);
    ASSERT_TRUE(supervised.has_value()) << point << ": " << supervised.error();
    expect_identical(supervised->result, *coded_, point);
    EXPECT_EQ(supervised->stats.crashes, 1) << point;
    EXPECT_EQ(supervised->stats.incarnations, 2) << point;
  }
}

TEST_F(SupervisorCrashDeterminismTest, KillAtEverySupervisorPointConverges) {
  // Deterministic (non-seeded) sweep over the supervisor-level crash
  // points, one kill each, checking recovery machinery actually engaged
  // — on every settle path, each against its own crash-free reference.
  struct Case {
    const char* point;
    std::uint64_t scope;
  };
  const Case cases[] = {
      {recovery::kCrashShardRun, 1},
      {recovery::kCrashShardWedge, 2},
      {recovery::kCrashSettleCycle, 3},
      {recovery::kCrashSettleChunkPre, 0},
      {recovery::kCrashSettleChunkPost, 0},
      {recovery::kCrashJournalAppendPost, 0},
      {recovery::kCrashCheckpointPostRename, 0},
  };
  struct Path {
    const char* name;
    FleetConfig fleet;
    const FleetResult* reference;
  };
  const Path paths[] = {
      {"lossless", soak_fleet(2, false), lossless_},
      {"stop-and-wait", soak_fleet(2, true), lossy_},
      {"coded", coded_soak_fleet(2), coded_},
  };
  std::uint64_t tag = 200;
  for (const Path& path : paths) {
    for (const Case& c : cases) {
      const std::string label = std::string(path.name) + " " + c.point;
      recovery::CrashPlan plan;
      plan.arm({c.point, c.scope, 0, recovery::CrashKind::Kill});
      SupervisorConfig config;
      config.fleet = path.fleet;
      config.state_dir = state_dir_for("point", tag++);
      config.plan = &plan;
      auto supervised = run_supervised_fleet(config);
      ASSERT_TRUE(supervised.has_value())
          << label << ": " << supervised.error();
      expect_identical(supervised->result, *path.reference, label);
      EXPECT_EQ(supervised->stats.crashes, 1) << label;
      EXPECT_EQ(supervised->stats.incarnations, 2) << label;
    }
  }
}

TEST_F(SupervisorCrashDeterminismTest, WedgedShardRestartsWithoutNewIncarnation) {
  recovery::CrashPlan plan;
  plan.arm({recovery::kCrashShardWedge, 1, 0, recovery::CrashKind::Wedge});
  SupervisorConfig config;
  config.fleet = soak_fleet(2, false);
  config.state_dir = state_dir_for("wedge", 1);
  config.plan = &plan;
  auto supervised = run_supervised_fleet(config);
  ASSERT_TRUE(supervised.has_value()) << supervised.error();
  expect_identical(supervised->result, *lossless_, "wedged shard");
  // The watchdog absorbed the wedge inside the incarnation.
  EXPECT_EQ(supervised->stats.incarnations, 1);
  EXPECT_EQ(supervised->stats.wedges, 1);
  EXPECT_EQ(supervised->stats.shard_restarts, 1);
}

TEST_F(SupervisorCrashDeterminismTest, CheckpointsAreActuallyReused) {
  // Kill during settlement: the shard phase finished and checkpointed,
  // so the next incarnation must reuse every shard checkpoint instead
  // of re-simulating.
  recovery::CrashPlan plan;
  plan.arm({recovery::kCrashSettleChunkPost, 0, 0, recovery::CrashKind::Kill});
  SupervisorConfig config;
  config.fleet = soak_fleet(2, false);
  config.state_dir = state_dir_for("reuse", 1);
  config.plan = &plan;
  auto supervised = run_supervised_fleet(config);
  ASSERT_TRUE(supervised.has_value()) << supervised.error();
  expect_identical(supervised->result, *lossless_, "checkpoint reuse");
  EXPECT_EQ(supervised->stats.shard_checkpoints_reused,
            static_cast<std::size_t>(config.fleet.shards));
  EXPECT_GE(supervised->stats.settle_chunks_recovered, 1u);
}

TEST_F(SupervisorCrashDeterminismTest, StaleCheckpointOfAnotherShapeIsRejected) {
  // A 2-cycle run dies for good once its shards have checkpointed...
  recovery::CrashPlan plan;
  plan.arm({recovery::kCrashSettleChunkPre, 0, 0, recovery::CrashKind::Kill});
  SupervisorConfig dead;
  dead.fleet = soak_fleet(2, false);
  dead.state_dir = state_dir_for("stale_shape", 1);
  std::filesystem::remove_all(dead.state_dir);
  dead.plan = &plan;
  dead.max_incarnations = 1;
  ASSERT_FALSE(run_supervised_fleet(dead).has_value());

  // ...and a 3-cycle run in the same directory must refuse its shard
  // checkpoints instead of aggregating cycles they do not have.
  SupervisorConfig next;
  next.fleet = soak_fleet(2, false);
  next.fleet.base.cycles = 3;
  next.state_dir = dead.state_dir;
  auto supervised = run_supervised_fleet(next);
  ASSERT_FALSE(supervised.has_value());
  EXPECT_NE(supervised.error().find("shard checkpoint"), std::string::npos)
      << supervised.error();
  std::filesystem::remove_all(dead.state_dir);
}

}  // namespace
}  // namespace tlc::fleet
