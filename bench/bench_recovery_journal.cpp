// google-benchmark microbenchmarks for the crash-recovery machinery:
// journal append/replay throughput, checkpoint write cost, and the
// end-to-end "recovery tax" — a supervised crash-free fleet run versus
// the plain engine. These bound what write-ahead durability costs the
// charging pipeline per op; DESIGN.md §11.7 quotes the numbers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/supervisor.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/journal.hpp"
#include "recovery/state_log.hpp"
#include "util/rng.hpp"

namespace {

using namespace tlc;

std::string bench_path(const char* name) {
  return std::string("/tmp/tlc_bench_") + name;
}

void wipe_state_log(const std::string& dir, const std::string& stem) {
  std::remove((dir + "/" + stem + ".ckpt").c_str());
  std::remove((dir + "/" + stem + ".ckpt.tmp").c_str());
  std::remove((dir + "/" + stem + ".wal").c_str());
}

// One framed append (CRC32C + length header + payload) to an open
// journal, rotated periodically so the file never grows unboundedly.
void BM_JournalAppend(benchmark::State& state) {
  const std::string path = bench_path("journal_append.wal");
  std::remove(path.c_str());
  auto journal = recovery::Journal::open(path);
  if (!journal.has_value()) {
    state.SkipWithError("journal open failed");
    return;
  }
  Rng rng(1);
  const Bytes op = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t since_rotate = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal->append(op).ok());
    if (++since_rotate == 4096) {
      state.PauseTiming();
      (void)journal->rotate();
      since_rotate = 0;
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Arg(64)->Arg(256)->Arg(4096);

// Full-file replay: CRC verification plus the apply callback for every
// frame. range(0) = record count at 256-byte payloads.
void BM_JournalReplay(benchmark::State& state) {
  const std::string path = bench_path("journal_replay.wal");
  std::remove(path.c_str());
  {
    auto journal = recovery::Journal::open(path);
    if (!journal.has_value()) {
      state.SkipWithError("journal open failed");
      return;
    }
    Rng rng(2);
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      if (!journal->append(rng.bytes(256)).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    std::uint64_t bytes_seen = 0;
    auto stats = recovery::Journal::replay(
        path, [&bytes_seen](const Bytes& op) { bytes_seen += op.size(); });
    benchmark::DoNotOptimize(stats.has_value());
    benchmark::DoNotOptimize(bytes_seen);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalReplay)->Arg(64)->Arg(1024)->Arg(8192);

// Atomic snapshot write: tmp file + CRC header + rename.
void BM_CheckpointWrite(benchmark::State& state) {
  const std::string path = bench_path("checkpoint.ckpt");
  Rng rng(3);
  const Bytes snapshot = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(recovery::write_checkpoint(path, snapshot).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}
BENCHMARK(BM_CheckpointWrite)->Arg(1024)->Arg(65536);

// The full StateLog cycle an OFCS checkpoint performs: snapshot write
// plus journal rotation, after a burst of journaled ops.
void BM_StateLogCheckpointCycle(benchmark::State& state) {
  const std::string dir = "/tmp";
  const std::string stem = "tlc_bench_statelog";
  wipe_state_log(dir, stem);
  auto log = recovery::StateLog::open(dir, stem);
  if (!log.has_value()) {
    state.SkipWithError("state log open failed");
    return;
  }
  Rng rng(4);
  const Bytes op = rng.bytes(128);
  const Bytes snapshot = rng.bytes(4096);
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) benchmark::DoNotOptimize(log->append(op).ok());
    benchmark::DoNotOptimize(log->checkpoint(snapshot).ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
  wipe_state_log(dir, stem);
}
BENCHMARK(BM_StateLogCheckpointCycle);

fleet::FleetConfig bench_fleet() {
  fleet::FleetConfig config;
  config.base.cycle_length = 15 * kSecond;
  config.base.cycles = 2;
  config.ue_count = 6;
  config.shards = 3;
  config.threads = 2;
  config.seed = 0xbe7c4;
  config.rsa_bits = 512;
  config.key_cache_slots = 2;
  return config;
}

// Baseline for the recovery tax: the plain engine, no durability.
void BM_FleetPlain(benchmark::State& state) {
  const fleet::FleetConfig config = bench_fleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet::run_fleet(config));
  }
}
BENCHMARK(BM_FleetPlain)->Unit(benchmark::kMillisecond);

// The same fleet under supervision with no injected faults: every
// shard job checkpoints its records and its settled receipts, the OFCS
// runs write-ahead. The delta over BM_FleetPlain is the recovery tax.
void BM_FleetSupervisedCrashFree(benchmark::State& state) {
  fleet::SupervisorConfig config;
  config.fleet = bench_fleet();
  config.state_dir = bench_path("supervised_fleet");
  for (auto _ : state) {
    auto supervised = fleet::run_supervised_fleet(config);
    if (!supervised.has_value()) {
      state.SkipWithError("supervised run failed");
      return;
    }
    benchmark::DoNotOptimize(supervised->result.totals.billed_bytes);
  }
}
BENCHMARK(BM_FleetSupervisedCrashFree)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
