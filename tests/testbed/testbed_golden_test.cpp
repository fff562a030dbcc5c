// Byte-for-byte pins of the single-UE Testbed path.
//
// Every CycleMeasurements field of every cycle, for a fixed-seed
// matrix: an uplink app (WebcamRtsp) and a downlink app (GamingQci7),
// each with the RRC COUNTER CHECK monitor on and off; one trace-replay
// scenario; and one run with the Fig 4 timeline and RTT probes
// enabled, which also pins how many points and probes it recorded.
// The other testbed suites assert bounds and run-vs-run equality; this
// one fails on any change to which counters are read, when boundaries
// fire, or in what order the world draws its randomness.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testbed/testbed.hpp"
#include "workloads/gaming.hpp"
#include "workloads/trace.hpp"

namespace tlc::testbed {
namespace {

struct Pinned {
  std::uint64_t true_sent;
  std::uint64_t true_received;
  std::uint64_t edge_sent;
  std::uint64_t edge_received;
  std::uint64_t op_sent;
  std::uint64_t op_received;
  std::uint64_t gateway_volume;
};

/// A lossy, skewed cell: weak signal, intermittent outages and
/// background congestion, so loss, RLF re-attach, counter checks and
/// clock-skewed boundaries all show up in the pinned volumes.
ScenarioConfig golden_config(AppKind app, bool counter_check) {
  ScenarioConfig config;
  config.app = app;
  config.enable_counter_check = counter_check;
  config.background_mbps = 20.0;
  config.mean_rss_dbm = -97.0;
  config.disconnect_ratio = 0.1;
  config.cycle_length = 20 * kSecond;
  config.cycles = 3;
  config.seed = 2019;
  return config;
}

workloads::Trace capture_gaming_trace() {
  sim::Simulator sim;
  workloads::TraceRecorder recorder("golden capture");
  auto sink = recorder.tap(nullptr);
  workloads::GamingSource source(sim, sink, 1, sim::Direction::Downlink,
                                 sim::Qci::kQci7, workloads::GamingParams{},
                                 Rng(23));
  source.start(0);
  sim.run_until(8 * kSecond);
  source.stop();
  return recorder.trace();
}

void expect_pinned(const std::vector<CycleMeasurements>& got,
                   const std::vector<Pinned>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cycle " << i);
    EXPECT_EQ(got[i].true_sent, want[i].true_sent);
    EXPECT_EQ(got[i].true_received, want[i].true_received);
    EXPECT_EQ(got[i].edge_sent, want[i].edge_sent);
    EXPECT_EQ(got[i].edge_received, want[i].edge_received);
    EXPECT_EQ(got[i].op_sent, want[i].op_sent);
    EXPECT_EQ(got[i].op_received, want[i].op_received);
    EXPECT_EQ(got[i].gateway_volume, want[i].gateway_volume);
  }
}

// Note cycle 1 of the counter-check runs: the operator's RRC-based
// far-side view (op_sent uplink, op_received downlink) exceeds
// true_sent. That is a known defect, suspected to be the COUNTER CHECK
// monitor double-counting across an RLF detach and reattach. It is
// pinned as-is so a behaviour-preserving change cannot alter it
// silently; the fix re-pins these tables.
const std::vector<Pinned> kUplinkCounterCheck = {
    {1964654u, 1879018u, 1969999u, 1859934u, 11200u, 1879018u, 1879018u},
    {1914945u, 1180221u, 1911265u, 1207972u, 3245417u, 1198416u, 1198416u},
    {1945919u, 1732544u, 1938962u, 1722787u, 1937002u, 1712949u, 1712949u},
};
const std::vector<Pinned> kUplinkTrafficStats = {
    {1964654u, 1879018u, 1969999u, 1859934u, 1996085u, 1879018u, 1879018u},
    {1914945u, 1180221u, 1911265u, 1207972u, 1903509u, 1198416u, 1198416u},
    {1945919u, 1732544u, 1938962u, 1722787u, 1924524u, 1712949u, 1712949u},
};
const std::vector<Pinned> kDownlinkCounterCheck = {
    {52509u, 50730u, 52586u, 50592u, 52815u, 101u, 52815u},
    {49010u, 30084u, 49080u, 30530u, 46004u, 80590u, 46004u},
    {51840u, 47434u, 51602u, 47165u, 51652u, 47331u, 51652u},
};
const std::vector<Pinned> kDownlinkTrafficStats = {
    {52509u, 50730u, 52586u, 50592u, 52815u, 50730u, 52815u},
    {49010u, 30084u, 49080u, 30530u, 46004u, 30215u, 46004u},
    {51840u, 47434u, 51602u, 47165u, 51652u, 47231u, 51652u},
};
const std::vector<Pinned> kReplay = {
    {55383u, 51765u, 55303u, 51765u, 55502u, 0u, 55502u},
    {52673u, 30919u, 52298u, 30549u, 48450u, 83128u, 48450u},
};
const std::vector<Pinned> kTimelineProbes = {
    {4445774u, 4266560u, 4460622u, 4216323u, 4524910u, 43323u, 4524910u},
    {4293883u, 2643164u, 4279993u, 2702384u, 4004326u, 6858665u, 4004326u},
};

TEST(TestbedGoldenTest, UplinkWithCounterCheck) {
  Testbed testbed(golden_config(AppKind::WebcamRtsp, true));
  expect_pinned(testbed.run(), kUplinkCounterCheck);
}

TEST(TestbedGoldenTest, UplinkWithTrafficStats) {
  Testbed testbed(golden_config(AppKind::WebcamRtsp, false));
  expect_pinned(testbed.run(), kUplinkTrafficStats);
}

TEST(TestbedGoldenTest, DownlinkWithCounterCheck) {
  Testbed testbed(golden_config(AppKind::GamingQci7, true));
  expect_pinned(testbed.run(), kDownlinkCounterCheck);
}

TEST(TestbedGoldenTest, DownlinkWithTrafficStats) {
  Testbed testbed(golden_config(AppKind::GamingQci7, false));
  expect_pinned(testbed.run(), kDownlinkTrafficStats);
}

TEST(TestbedGoldenTest, TraceReplay) {
  ScenarioConfig config = golden_config(AppKind::GamingQci7, true);
  config.replay_trace =
      std::make_shared<workloads::Trace>(capture_gaming_trace());
  config.cycles = 2;
  Testbed testbed(config);
  expect_pinned(testbed.run(), kReplay);
}

TEST(TestbedGoldenTest, TimelineAndRttProbes) {
  ScenarioConfig config = golden_config(AppKind::WebcamUdpDownlink, true);
  config.cycles = 2;
  Testbed testbed(config);
  testbed.enable_timeline(kSecond);
  testbed.enable_rtt_probes(40, 500 * kMillisecond);
  expect_pinned(testbed.run(), kTimelineProbes);
  // 2 x 20 s cycles plus the 50 s boundary grace, one point a second.
  EXPECT_EQ(testbed.timeline().size(), 90u);
  EXPECT_EQ(testbed.rtt_ms().size(), 32u);
}

}  // namespace
}  // namespace tlc::testbed
