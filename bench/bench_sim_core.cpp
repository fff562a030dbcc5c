// Event-core microbenchmark: raw simulator throughput on the three hot
// operations (schedule, fire, cancel) plus the arrival-coalescing
// pattern the workloads use.
//
// Cases:
//   schedule_fire      N one-shot events at jittered times, then run()
//   schedule_cancel    N events scheduled then cancelled; run() drains
//                      the disarmed slots (the lazy-deletion path)
//   self_chain         K self-rescheduling chains (the frame-drain
//                      shape: one live event per chain, slot churn)
//   arrivals_unbatched one event per packet, pre-scheduled per frame
//                      (the pre-coalescing workload shape)
//   arrivals_batched   one self-rescheduling drain event per frame,
//                      consuming the frame's packets chunk by chunk
//   enodeb_sched_<N>   one eNodeB cell of N UEs with outages (η = 0.2),
//                      its downlink offered 1.3x capacity: the scheduler
//                      picks past queued traffic of out-of-coverage UEs
//
// Each case reports median-of-3 events/sec (packets/sec for the arrival
// cases, so the two shapes are directly comparable; packets served, one
// scheduler pick each, for the eNodeB cases).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "epc/enodeb.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlc::bench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kSamples = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string name;
  std::uint64_t events;
  double wall_seconds;
  double events_per_second;
};

// Accumulator the event bodies write through so the optimizer cannot
// delete the callbacks.
std::uint64_t g_sink = 0;

double bench_schedule_fire(std::uint64_t n, Rng& rng) {
  sim::Simulator sim;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform_u64(1'000'000));
    sim.schedule_at(at, [i] { g_sink += i; });
  }
  sim.run();
  return seconds_since(start);
}

double bench_schedule_cancel(std::uint64_t n, Rng& rng) {
  sim::Simulator sim;
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform_u64(1'000'000));
    ids.push_back(sim.schedule_at(at, [i] { g_sink += i; }));
  }
  for (const std::uint64_t id : ids) {
    sim.cancel(id);
  }
  sim.run();  // drains the disarmed heap entries
  return seconds_since(start);
}

double bench_self_chain(std::uint64_t n, std::uint64_t chains) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t remaining;
    SimTime step;
    void fire() {
      g_sink += remaining;
      if (--remaining > 0) {
        sim->schedule_after(step, [this] { fire(); });
      }
    }
  };
  std::vector<Chain> state;
  state.reserve(chains);
  const auto start = Clock::now();
  for (std::uint64_t c = 0; c < chains; ++c) {
    state.push_back(Chain{&sim, n / chains, static_cast<SimTime>(c % 7 + 1)});
    Chain* chain = &state.back();
    sim.schedule_after(chain->step, [chain] { chain->fire(); });
  }
  sim.run();
  return seconds_since(start);
}

constexpr std::uint64_t kPacketsPerFrame = 32;
constexpr SimTime kPacketSpacing = 40;
constexpr SimTime kFrameSpacing = kPacketsPerFrame * kPacketSpacing * 2;

double bench_arrivals_unbatched(std::uint64_t packets) {
  sim::Simulator sim;
  const std::uint64_t frames = packets / kPacketsPerFrame;
  const auto start = Clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    const SimTime frame_at = static_cast<SimTime>(f) * kFrameSpacing;
    sim.schedule_at(frame_at, [&sim, frame_at] {
      for (std::uint64_t p = 0; p < kPacketsPerFrame; ++p) {
        sim.schedule_at(frame_at + static_cast<SimTime>(p) * kPacketSpacing,
                        [p] { g_sink += p; });
      }
    });
  }
  sim.run();
  return seconds_since(start);
}

double bench_arrivals_batched(std::uint64_t packets) {
  sim::Simulator sim;
  struct Drain {
    sim::Simulator* sim;
    std::uint64_t remaining = 0;
    void pump() {
      g_sink += remaining;
      if (--remaining > 0) {
        sim->schedule_after(kPacketSpacing, [this] { pump(); });
      }
    }
  };
  std::vector<Drain> drains;
  const std::uint64_t frames = packets / kPacketsPerFrame;
  drains.reserve(frames);
  const auto start = Clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    const SimTime frame_at = static_cast<SimTime>(f) * kFrameSpacing;
    drains.push_back(Drain{&sim});
    Drain* drain = &drains.back();
    sim.schedule_at(frame_at, [drain] {
      drain->remaining = kPacketsPerFrame;
      drain->pump();
    });
  }
  sim.run();
  return seconds_since(start);
}

class NullUe final : public epc::RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return 0; }
  void modem_deliver(const sim::Packet& packet) override {
    g_sink += packet.id;
  }
};

// One UE flow: a fixed-size packet every `period` until `until`.
struct Flow {
  sim::Simulator* sim;
  epc::EnodeB* enodeb;
  epc::Imsi imsi;
  SimTime period;
  SimTime until;
  sim::Packet packet;
  void fire() {
    ++packet.id;
    packet.created_at = sim->now();
    if (packet.direction == sim::Direction::Downlink) {
      enodeb->downlink_submit(imsi, packet);
    } else {
      enodeb->uplink_submit(imsi, packet);
    }
    if (sim->now() + period < until) {
      sim->schedule_after(period, [this] { fire(); });
    }
  }
};

// Each UE gets a QCI 9 downlink bulk flow (together 1.3x the cell's
// downlink capacity), a QCI 7 gaming flow each way and a QCI 9 uplink
// flow. Returns the wall time; `picks` is the number of packets served.
double bench_enodeb_sched(std::uint64_t ues, SimTime duration,
                          std::uint64_t seed, std::uint64_t& picks) {
  sim::Simulator sim;
  const epc::EnodebParams params;
  epc::EnodeB enodeb(sim, params, Rng(seed));
  std::vector<sim::RadioChannel> radios;
  std::vector<NullUe> devices(ues);
  std::vector<Flow> flows;
  radios.reserve(ues);
  flows.reserve(4 * ues);
  const auto bulk_period = static_cast<SimTime>(
      static_cast<double>(ues) * 1200.0 * 8.0 /
      (1.3 * params.dl_capacity_bps) * static_cast<double>(kSecond));
  for (std::uint64_t i = 0; i < ues; ++i) {
    sim::RadioParams rp;
    rp.mean_rss_dbm = -95.0;
    rp.disconnect_ratio = 0.2;
    radios.emplace_back(rp, Rng(seed * 1000 + i));
    const epc::Imsi imsi{i + 1};
    enodeb.add_ue(imsi, &devices[i], &radios.back());
    auto add_flow = [&](SimTime period, std::uint32_t bytes,
                        sim::Direction dir, sim::Qci qci) {
      sim::Packet packet;
      packet.id = ((i + 1) << 40) | (flows.size() << 32);
      packet.size_bytes = bytes;
      packet.direction = dir;
      packet.qci = qci;
      flows.push_back(Flow{&sim, &enodeb, imsi, period, duration, packet});
    };
    add_flow(bulk_period, 1200, sim::Direction::Downlink, sim::Qci::kQci9);
    add_flow(20 * kMillisecond, 120, sim::Direction::Downlink,
             sim::Qci::kQci7);
    add_flow(20 * kMillisecond, 120, sim::Direction::Uplink, sim::Qci::kQci7);
    add_flow(5 * kMillisecond, 600, sim::Direction::Uplink, sim::Qci::kQci9);
  }
  const auto start = Clock::now();
  for (std::size_t f = 0; f < flows.size(); ++f) {
    Flow* flow = &flows[f];
    sim.schedule_at(static_cast<SimTime>(f) * 37 * kMicrosecond,
                    [flow] { flow->fire(); });
  }
  sim.run();
  const double wall = seconds_since(start);
  const auto& stats = enodeb.stats();
  picks = stats.dl_delivered + stats.dl_air_drops + stats.ul_delivered +
          stats.ul_air_drops;
  return wall;
}

// `events` is read after the samples run, so a case may count its own.
template <typename Fn>
Row sample(const std::string& name, const std::uint64_t& events, Fn&& body) {
  std::vector<double> walls;
  for (int i = 0; i < kSamples; ++i) {
    walls.push_back(body());
  }
  std::sort(walls.begin(), walls.end());
  const double wall = walls[walls.size() / 2];
  const Row row{name, events, wall, static_cast<double>(events) / wall};
  std::printf("%20s %14llu %10.3f %16.0f\n", row.name.c_str(),
              static_cast<unsigned long long>(row.events), row.wall_seconds,
              row.events_per_second);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sim_core: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_core\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"events\": %llu, "
                 "\"wall_seconds\": %.3f, \"events_per_second\": %.0f}%s\n",
                 row.name.c_str(),
                 static_cast<unsigned long long>(row.events), row.wall_seconds,
                 row.events_per_second, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run(const BenchOptions& options) {
  print_mode(options);
  const std::uint64_t n = options.full ? 8'000'000 : 2'000'000;
  std::printf("%20s %14s %10s %16s\n", "case", "events", "wall (s)",
              "events/sec");

  Rng rng(options.seed);
  std::vector<Row> rows;
  rows.push_back(sample("schedule_fire", n, [&] {
    return bench_schedule_fire(n, rng);
  }));
  rows.push_back(sample("schedule_cancel", n, [&] {
    return bench_schedule_cancel(n, rng);
  }));
  rows.push_back(sample("self_chain", n, [&] {
    return bench_self_chain(n, 64);
  }));
  rows.push_back(sample("arrivals_unbatched", n, [&] {
    return bench_arrivals_unbatched(n);
  }));
  rows.push_back(sample("arrivals_batched", n, [&] {
    return bench_arrivals_batched(n);
  }));
  const SimTime cell_time = (options.full ? 180 : 60) * kSecond;
  for (const std::uint64_t ues : {8u, 64u}) {
    std::uint64_t picks = 0;
    rows.push_back(sample("enodeb_sched_" + std::to_string(ues), picks, [&] {
      return bench_enodeb_sched(ues, cell_time, options.seed, picks);
    }));
  }

  std::printf("\n(sink=%llu)\n", static_cast<unsigned long long>(g_sink));
  if (!options.json_path.empty()) {
    write_json(options.json_path, rows);
  }
  return 0;
}

}  // namespace
}  // namespace tlc::bench

int main(int argc, char** argv) {
  return tlc::bench::run(tlc::bench::parse_options(argc, argv));
}
