// Fleet runs over the lossy transport: thread-count bit-identity with
// faults injected, and byte-equality with the lossless path when every
// fault rate is zero.
#include <gtest/gtest.h>

#include "fleet/engine.hpp"

namespace tlc::fleet {
namespace {

FleetConfig small_fleet(unsigned threads) {
  FleetConfig config;
  config.base.cycle_length = 15 * kSecond;
  config.base.cycles = 2;
  config.base.background_mbps = 2.0;
  config.ue_count = 8;
  config.shards = 2;
  config.threads = threads;
  config.seed = 0x10553f1ee7;
  config.rsa_bits = 512;
  return config;
}

FleetConfig lossy_fleet(unsigned threads) {
  FleetConfig config = small_fleet(threads);
  config.lossy_transport = true;
  config.transport.seed = 0xbad11;
  config.transport.to_edge.drop = 0.15;
  config.transport.to_edge.duplicate = 0.1;
  config.transport.to_edge.reorder = 0.1;
  config.transport.to_operator.drop = 0.15;
  config.transport.to_operator.corrupt = 0.05;
  config.transport.retry.base_timeout_ticks = 8;
  config.transport.retry.max_retransmits = 6;
  return config;
}

void expect_same_results(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.measurement_digest, b.measurement_digest);
  EXPECT_EQ(a.cdf_digest, b.cdf_digest);
  EXPECT_EQ(a.poc_digest, b.poc_digest);
  EXPECT_EQ(a.settlement_totals, b.settlement_totals);
  ASSERT_EQ(a.settlement_by_cycle.size(), b.settlement_by_cycle.size());
  for (std::size_t i = 0; i < a.settlement_by_cycle.size(); ++i) {
    EXPECT_EQ(a.settlement_by_cycle[i], b.settlement_by_cycle[i]) << i;
  }
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (std::size_t i = 0; i < a.receipts.size(); ++i) {
    EXPECT_EQ(a.receipts[i].outcome, b.receipts[i].outcome) << i;
    EXPECT_EQ(a.receipts[i].charged, b.receipts[i].charged) << i;
    EXPECT_EQ(a.receipts[i].retransmits, b.receipts[i].retransmits) << i;
    EXPECT_EQ(a.receipts[i].poc_wire, b.receipts[i].poc_wire) << i;
    EXPECT_EQ(a.receipts[i].failure_reason, b.receipts[i].failure_reason) << i;
  }
}

TEST(LossyFleetTest, FaultyRunIsBitIdenticalAcrossThreadCounts) {
  const FleetResult r1 = run_fleet(lossy_fleet(1));
  const FleetResult r4 = run_fleet(lossy_fleet(4));
  expect_same_results(r1, r4);
  // The injected faults must actually bite somewhere, or the test
  // proves nothing about lossy determinism.
  const auto& totals = r1.settlement_totals;
  EXPECT_EQ(totals.total(), r1.receipts.size());
  EXPECT_GT(totals.retried + totals.degraded + totals.rejected_tamper, 0u);
}

TEST(LossyFleetTest, ZeroRatesMatchTheLosslessPathExactly) {
  // lossy_transport on but every fault rate zero: the transport is a
  // 1-tick FIFO pipe and all byte-level artifacts must equal the
  // in-process settler's output.
  FleetConfig zero = small_fleet(2);
  zero.lossy_transport = true;
  zero.transport.seed = 0x77;  // must not matter with zero rates

  const FleetResult lossless = run_fleet(small_fleet(2));
  const FleetResult piped = run_fleet(zero);
  EXPECT_EQ(piped.measurement_digest, lossless.measurement_digest);
  EXPECT_EQ(piped.cdf_digest, lossless.cdf_digest);
  EXPECT_EQ(piped.poc_digest, lossless.poc_digest);
  ASSERT_EQ(piped.receipts.size(), lossless.receipts.size());
  for (std::size_t i = 0; i < piped.receipts.size(); ++i) {
    EXPECT_EQ(piped.receipts[i].poc_wire, lossless.receipts[i].poc_wire) << i;
    EXPECT_EQ(piped.receipts[i].charged, lossless.receipts[i].charged) << i;
    EXPECT_EQ(piped.receipts[i].retransmits, 0) << i;
  }
  // Every cycle converges first try on a perfect pipe.
  EXPECT_EQ(piped.settlement_totals.converged, piped.receipts.size());
  EXPECT_EQ(piped.settlement_totals.retried, 0u);
  EXPECT_EQ(piped.settlement_totals.degraded, 0u);
  EXPECT_EQ(piped.settlement_totals.rejected_tamper, 0u);
}

TEST(LossyFleetTest, CountersAggregateAcrossCycles) {
  const FleetResult result = run_fleet(lossy_fleet(2));
  core::SettlementCounters sum;
  for (const core::SettlementCounters& cycle : result.settlement_by_cycle) {
    sum.converged += cycle.converged;
    sum.retried += cycle.retried;
    sum.degraded += cycle.degraded;
    sum.rejected_tamper += cycle.rejected_tamper;
  }
  EXPECT_EQ(sum, result.settlement_totals);
  EXPECT_EQ(result.settlement_by_cycle.size(),
            static_cast<std::size_t>(small_fleet(1).base.cycles));
}

}  // namespace
}  // namespace tlc::fleet
