// Fleet benchmark program. See README.md in this directory for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// One process runs one workload as a closed batch job on kThreads
// worker threads: one fleet run at a time, each starting when the
// previous one has finished. Every run's output is checked against a
// threads=1 reference run of the same config.
//
//   --trace 0  set-up timing, then an unrecorded warm-up run, then
//              back-to-back timed runs for --seconds; prints the
//              end-to-end metrics.
//   --trace 1  alternates untraced run_fleet, a traced composition of
//              the fleet::detail helpers run_fleet is built from, and
//              run_supervised_fleet, for --seconds; prints the
//              per-layer metrics and writes the spans to --trace-out.
//
// Besides the final JSON line the program prints a settlement census
// and a `COUNTERS {...}` line with the exact model counts, which
// run.py compares with the counts pinned in pinned_counts.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "charging/ingest.hpp"
#include "core/batch_settlement.hpp"
#include "epc/enodeb.hpp"
#include "epc/ofcs.hpp"
#include "fleet/engine.hpp"
#include "fleet/engine_detail.hpp"
#include "fleet/shard.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/thread_pool.hpp"
#include "transport/coded_session.hpp"
#include "transport/lossy_settlement.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"

namespace tlc::fleetbench {
namespace {

using Clock = std::chrono::steady_clock;

// The benchmark host's hardware thread count; fixed so that results
// from different hosts are comparable only where this matches.
constexpr unsigned kThreads = 4;
// Set-up is timed once after every timed run, and at least this many
// times, and reported as the median.
constexpr int kMinSetupReps = 5;
// Floors on the number of measured runs, whatever --seconds says.
constexpr int kMinTimedRuns = 3;
constexpr int kMinTracedRounds = 2;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double quantile(const std::vector<double>& values, double q) {
  Samples samples;
  samples.add_all(values);
  return samples.quantile(q);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  fleet::FleetConfig config;
  // Timed runs go through run_supervised_fleet instead of run_fleet.
  bool supervised = false;
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  fleet::FleetConfig& c = w.config;
  c.threads = kThreads;
  c.seed = seed;
  if (name == "sim_heavy") {
    // Simulation dominates: long cycles, a congested cell, the default
    // app mix and cheap in-process settlement.
    c.ue_count = 1024;
    c.base.cycles = 2;
    c.base.cycle_length = 10 * kSecond;
    c.base.background_mbps = 2.0;
    c.rsa_bits = 512;
  } else if (name == "settle_heavy") {
    // Settlement dominates: a thin app, many short cycles, RSA-1024,
    // RLNC-coded settlement over a 10%-drop link and streaming ingest.
    c.ue_count = 512;
    c.base.cycles = 8;
    c.base.cycle_length = 2 * kSecond;
    c.base.background_mbps = 0.0;
    c.app_mix = {testbed::AppKind::GamingQci7};
    c.rsa_bits = 1024;
    c.lossy_transport = true;
    c.transport.coding = transport::Coding::Rlnc;
    c.transport.coded.generation_size = 32;
    c.transport.to_edge.drop = 0.10;
    c.transport.to_operator.drop = 0.10;
    c.streaming_ingest = true;
    c.ingest_batch_size = 256;
  } else if (name == "supervised_byzantine") {
    // Journaled supervision, stop-and-wait settlement over a 5%-drop
    // link and a fifth of the population running billing bypasses.
    c.ue_count = 512;
    c.base.cycles = 4;
    c.base.cycle_length = 2 * kSecond;
    c.base.background_mbps = 1.0;
    c.rsa_bits = 512;
    c.lossy_transport = true;
    c.transport.coding = transport::Coding::Off;
    c.transport.to_edge.drop = 0.05;
    c.transport.to_operator.drop = 0.05;
    c.adversary.fraction = 0.2;
    w.supervised = true;
  } else {
    return std::nullopt;
  }
  c.shards = c.ue_count / 8;
  return w;
}

fleet::FleetResult run_supervised(const fleet::FleetConfig& config,
                                  const std::string& state_dir) {
  fleet::SupervisorConfig supervisor;
  supervisor.fleet = config;
  supervisor.state_dir = state_dir;
  Expected<fleet::SupervisedResult> run =
      fleet::run_supervised_fleet(supervisor);
  if (!run) throw std::runtime_error("supervised run failed: " + run.error());
  return std::move(run->result);
}

fleet::FleetResult run_workload(const Workload& w,
                                const std::string& state_dir) {
  return w.supervised ? run_supervised(w.config, state_dir)
                      : fleet::run_fleet(w.config);
}

// ---------------------------------------------------------------------
// Output checks

struct Census {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t converged = 0;
  std::uint64_t retried = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected_tamper = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rounds_completed = 0;  // Σ rounds over completed receipts
  // Non-completed receipts keyed "<outcome>/<failure_reason>".
  std::map<std::string, std::uint64_t> failed_by_reason;

  [[nodiscard]] std::uint64_t failed() const { return attempted - completed; }
  bool operator==(const Census&) const = default;
};

Census census_of(const std::vector<core::SettlementReceipt>& receipts) {
  Census c;
  for (const core::SettlementReceipt& r : receipts) {
    ++c.attempted;
    c.retransmits += static_cast<std::uint64_t>(r.retransmits);
    switch (r.outcome) {
      case core::SettleOutcome::Converged: ++c.converged; break;
      case core::SettleOutcome::Retried: ++c.retried; break;
      case core::SettleOutcome::Degraded: ++c.degraded; break;
      case core::SettleOutcome::RejectedTamper: ++c.rejected_tamper; break;
    }
    if (r.completed) {
      ++c.completed;
      c.rounds_completed += static_cast<std::uint64_t>(r.rounds);
    } else {
      ++c.failed_by_reason[std::string(core::settle_outcome_name(r.outcome)) +
                           "/" + r.failure_reason];
    }
  }
  return c;
}

// Everything two runs of one config must agree on: the five result
// digests plus the settlement and coded-transport censuses, which the
// digests do not cover.
struct Fingerprint {
  Bytes measurement;
  Bytes cdf;
  Bytes poc;
  Bytes anomaly;
  Bytes ingest;
  Census census;
  transport::CodedCounters coded;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const fleet::FleetResult& r) {
  return Fingerprint{r.measurement_digest, r.cdf_digest,  r.poc_digest,
                     r.anomaly_digest,     r.ingest_digest, census_of(r.receipts),
                     r.coded_totals};
}

class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  void same(const Fingerprint& reference, const fleet::FleetResult& result,
            const std::string& what) {
    const Fingerprint got = fingerprint_of(result);
    if (got == reference) return;
    std::string detail;
    if (got.measurement != reference.measurement) detail += " measurement";
    if (got.cdf != reference.cdf) detail += " cdf";
    if (got.poc != reference.poc) detail += " poc";
    if (got.anomaly != reference.anomaly) detail += " anomaly";
    if (got.ingest != reference.ingest) detail += " ingest";
    if (!(got.census == reference.census)) detail += " census";
    if (!(got.coded == reference.coded)) detail += " coded";
    expect(false, what + " differs from the threads=1 reference in:" + detail);
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

void check_ingest(const fleet::FleetConfig& config,
                  const fleet::FleetResult& result, Checker& checker) {
  if (!config.streaming_ingest) return;
  checker.expect(!result.ingest_batches.empty(),
                 "streaming ingest sealed no batch");
  std::size_t bad = 0;
  for (const charging::BatchPoc& poc : result.ingest_batches) {
    if (!charging::verify_batch_poc(poc, result.ingest_key).ok()) ++bad;
  }
  checker.expect(bad == 0, std::to_string(bad) + " of " +
                               std::to_string(result.ingest_batches.size()) +
                               " ingest batch PoCs fail verify_batch_poc");
}

// ---------------------------------------------------------------------
// Set-up: the calls a run makes before its first event.

double time_setup(const fleet::FleetConfig& config) {
  const std::vector<fleet::detail::ShardSlice> slices =
      fleet::detail::partition_shards(config);
  std::vector<std::unique_ptr<fleet::FleetShard>> shards;
  shards.reserve(slices.size());
  const Clock::time_point start = Clock::now();
  const core::RsaKeyCache keys(config.rsa_bits, config.key_cache_slots,
                               fleet::detail::key_cache_seed(config));
  for (const fleet::detail::ShardSlice& slice : slices) {
    shards.push_back(std::make_unique<fleet::FleetShard>(
        config, slice.shard_index, slice.first_ue, slice.ue_count));
  }
  return seconds_between(start, Clock::now());
}

// ---------------------------------------------------------------------
// Traced pipeline: run_fleet's composition of fleet::detail helpers,
// with a span around every call into a layer. Spans live in memory
// (one list per shard job, so workers never share one) and are written
// out after the last run.

struct SpanRef {
  int list = -1;  // -1: fleet-level list; otherwise the shard job index
  int index = -1;
};

struct Span {
  const char* name = "";
  SpanRef parent;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanList {
 public:
  explicit SpanList(int list) : list_(list) {}
  SpanRef open(const char* name, SpanRef parent) {
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return SpanRef{list_, static_cast<int>(spans_.size()) - 1};
  }
  double close(SpanRef ref) {
    Span& span = spans_[static_cast<std::size_t>(ref.index)];
    span.end = Clock::now();
    return seconds_between(span.start, span.end);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int list_;
  std::vector<Span> spans_;
};

struct TracedJob {
  explicit TracedJob(int list) : spans(list) {}
  SpanList spans;
  fleet::detail::ShardOutcome outcome;
  std::uint64_t events = 0;
  epc::EnodeB::Stats enodeb;
  std::vector<double> group_ms;  // one settle() call per whole-UE group
  double failed_group_s = 0.0;   // groups with >= 1 non-completed cycle
  double job_s = 0.0;
};

struct TracedRun {
  fleet::FleetResult result;
  SpanList fleet_spans{-1};
  std::vector<TracedJob> jobs;
  double wall_s = 0.0;
  double shard_phase_s = 0.0;
};

transport::LossyBatchReport settle_group(
    const fleet::FleetConfig& config, const core::BatchConfig& batch,
    const core::RsaKeyCache& keys,
    const std::vector<core::SettlementItem>& items) {
  if (config.lossy_transport &&
      config.transport.coding == transport::Coding::Rlnc) {
    return transport::CodedSettler(batch, config.transport, keys)
        .settle(items, 1);
  }
  if (config.lossy_transport) {
    return transport::LossySettler(batch, config.transport, keys)
        .settle(items, 1);
  }
  transport::LossyBatchReport report;
  report.receipts = core::BatchSettler(batch, keys).settle(items, 1);
  return report;
}

void traced_shard_job(const fleet::FleetConfig& config,
                      const core::BatchConfig& batch,
                      const core::RsaKeyCache& keys,
                      const fleet::detail::ShardSlice& slice, SpanRef parent,
                      TracedJob& job) {
  SpanList& spans = job.spans;
  const SpanRef root = spans.open("shard.job", parent);

  SpanRef span = spans.open("shard.build", root);
  auto shard = std::make_unique<fleet::FleetShard>(
      config, slice.shard_index, slice.first_ue, slice.ue_count);
  spans.close(span);

  span = spans.open("shard.simulate", root);
  job.outcome.records = shard->run();
  spans.close(span);
  job.events = shard->simulator().executed();
  job.enodeb = shard->enodeb().stats();
  shard.reset();

  fleet::detail::collect_gap_samples(job.outcome.records,
                                     job.outcome.gap_samples);
  const std::vector<core::SettlementItem> items =
      fleet::detail::settlement_items(job.outcome.records, config);
  std::vector<core::SettlementItem> group;
  for (std::size_t begin = 0; begin < items.size();) {
    std::size_t end = begin;
    while (end < items.size() && items[end].ue_id == items[begin].ue_id) ++end;
    group.assign(items.begin() + static_cast<std::ptrdiff_t>(begin),
                 items.begin() + static_cast<std::ptrdiff_t>(end));
    span = spans.open("shard.settle", root);
    transport::LossyBatchReport report = settle_group(config, batch, keys, group);
    const double settle_s = spans.close(span);
    job.group_ms.push_back(settle_s * 1e3);
    const bool failed = std::any_of(
        report.receipts.begin(), report.receipts.end(),
        [](const core::SettlementReceipt& r) { return !r.completed; });
    if (failed) job.failed_group_s += settle_s;
    for (core::SettlementReceipt& r : report.receipts) {
      job.outcome.receipts.push_back(std::move(r));
    }
    job.outcome.coded += report.coded;
    begin = end;
  }
  job.job_s = spans.close(root);
}

TracedRun run_traced(const fleet::FleetConfig& config) {
  TracedRun run;
  SpanList& spans = run.fleet_spans;
  const SpanRef root = spans.open("fleet.run", {});

  SpanRef span = spans.open("setup.keys", root);
  const core::RsaKeyCache keys(config.rsa_bits, config.key_cache_slots,
                               fleet::detail::key_cache_seed(config));
  spans.close(span);
  const core::BatchConfig batch = fleet::detail::make_batch_config(config);
  const std::vector<fleet::detail::ShardSlice> slices =
      fleet::detail::partition_shards(config);

  for (std::size_t i = 0; i < slices.size(); ++i) {
    run.jobs.emplace_back(static_cast<int>(i));
  }
  const SpanRef phase = spans.open("fleet.shards", root);
  {
    fleet::ThreadPool pool(config.threads);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      TracedJob* job = &run.jobs[i];
      const fleet::detail::ShardSlice slice = slices[i];
      pool.submit([&config, &batch, &keys, slice, phase, job] {
        traced_shard_job(config, batch, keys, slice, phase, *job);
      });
    }
    pool.wait_idle();
  }
  run.shard_phase_s = spans.close(phase);

  fleet::FleetResult& result = run.result;
  for (TracedJob& job : run.jobs) {
    fleet::detail::ShardOutcome& slot = job.outcome;
    for (fleet::UeRecord& record : slot.records) {
      result.records.push_back(std::move(record));
    }
    for (core::SettlementReceipt& receipt : slot.receipts) {
      result.receipts.push_back(std::move(receipt));
    }
    for (const auto& [scheme, samples] : slot.gap_samples) {
      result.gap_samples[scheme].add_all(samples.values());
    }
    result.coded_totals += slot.coded;
  }

  span = spans.open("ofcs.aggregate", root);
  epc::Ofcs ofcs(fleet::detail::fleet_plan(config));
  fleet::detail::aggregate_fleet(config, ofcs, result, nullptr);
  spans.close(span);

  span = spans.open("digest", root);
  fleet::detail::compute_digests(result);
  spans.close(span);

  run.wall_s = spans.close(root);
  return run;
}

const Span& span_at(const TracedRun& run, SpanRef ref) {
  const SpanList& list =
      ref.list < 0 ? run.fleet_spans
                   : run.jobs[static_cast<std::size_t>(ref.list)].spans;
  return list.spans()[static_cast<std::size_t>(ref.index)];
}

// Σ self time per span name: a span's duration minus the durations of
// its children (children of one span never overlap, except the shard
// jobs under fleet.shards, which are excluded from that parent).
std::map<std::string, double> self_seconds(const TracedRun& run) {
  std::map<std::string, double> self;
  auto visit = [&](const SpanList& list) {
    for (const Span& span : list.spans()) {
      const double d = seconds_between(span.start, span.end);
      self[span.name] += d;
      if (span.parent.index < 0) continue;
      const Span& parent = span_at(run, span.parent);
      if (std::string(parent.name) != "fleet.shards") self[parent.name] -= d;
    }
  };
  visit(run.fleet_spans);
  for (const TracedJob& job : run.jobs) visit(job.spans);
  return self;
}

void write_spans(const std::vector<TracedRun>& runs, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const TracedRun& run = runs[r];
    const Clock::time_point origin = run.fleet_spans.spans().front().start;
    // Span ids are unique within a run: fleet-level spans first, then
    // each job's spans in job order. Spans of one shard job share "job".
    std::vector<int> offset(run.jobs.size() + 1, 0);
    offset[0] = static_cast<int>(run.fleet_spans.spans().size());
    for (std::size_t j = 0; j < run.jobs.size(); ++j) {
      offset[j + 1] = offset[j] + static_cast<int>(run.jobs[j].spans.spans().size());
    }
    auto id_of = [&](SpanRef ref) {
      if (ref.index < 0) return -1;
      return (ref.list < 0 ? 0 : offset[static_cast<std::size_t>(ref.list)]) +
             ref.index;
    };
    auto emit = [&](const SpanList& list, int list_index) {
      for (std::size_t i = 0; i < list.spans().size(); ++i) {
        const Span& s = list.spans()[i];
        out << (first ? "" : ",\n") << "{\"run\":" << r << ",\"id\":"
            << id_of({list_index, static_cast<int>(i)})
            << ",\"parent\":" << id_of(s.parent) << ",\"job\":" << list_index
            << ",\"name\":\"" << s.name << "\",\"start_us\":"
            << seconds_between(origin, s.start) * 1e6
            << ",\"end_us\":" << seconds_between(origin, s.end) * 1e6 << "}";
        first = false;
      }
    };
    emit(run.fleet_spans, -1);
    for (std::size_t j = 0; j < run.jobs.size(); ++j) {
      emit(run.jobs[j].spans, static_cast<int>(j));
    }
  }
  out << "\n]\n";
}

// ---------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Census& census,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %20s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(census.attempted);
  json += ", \"failed\": " + std::to_string(census.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_census(const Census& c) {
  std::printf(
      "settlement: attempted %llu, completed %llu, failed %llu "
      "(converged %llu, retried %llu, degraded %llu, rejected-tamper %llu)\n",
      static_cast<unsigned long long>(c.attempted),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.failed()),
      static_cast<unsigned long long>(c.converged),
      static_cast<unsigned long long>(c.retried),
      static_cast<unsigned long long>(c.degraded),
      static_cast<unsigned long long>(c.rejected_tamper));
  for (const auto& [reason, n] : c.failed_by_reason) {
    std::printf("settlement failed: %-50s %llu\n", reason.c_str(),
                static_cast<unsigned long long>(n));
  }
}

// Exact model counts, pinned per workload and seed by run.py.
using Counters = std::map<std::string, std::uint64_t>;

Counters result_counters(const fleet::FleetResult& r) {
  const Census c = census_of(r.receipts);
  const transport::CodedCounters& k = r.coded_totals;
  Counters out = {
      {"core.settle.attempted", c.attempted},
      {"core.settle.failed", c.failed()},
      {"core.settle.converged", c.converged},
      {"core.settle.retried", c.retried},
      {"core.settle.degraded", c.degraded},
      {"core.settle.rejected_tamper", c.rejected_tamper},
      {"core.settle.rounds_completed", c.rounds_completed},
      {"transport.retransmits", c.retransmits},
      {"transport.coded.generations", k.generations},
      {"transport.coded.generations_decoded", k.generations_decoded},
      {"transport.coded.packets_sent", k.packets_sent},
      {"transport.coded.packets_delivered", k.packets_delivered},
      {"transport.coded.packets_dependent", k.packets_dependent},
      {"transport.coded.packets_corrupt", k.packets_corrupt},
      {"transport.coded.acks_sent", k.acks_sent},
      {"transport.coded.cycles_coded", k.cycles_coded},
      {"transport.coded.fallbacks", k.fallbacks},
      {"transport.coded.bytes_on_wire", k.bytes_on_wire},
      {"charging.ingest.batches", r.ingest_batches.size()},
  };
  for (const auto& [reason, n] : c.failed_by_reason) {
    out["core.settle.failed_by." + reason] = n;
  }
  return out;
}

Counters shard_counters(const TracedRun& run) {
  Counters out;
  for (const TracedJob& job : run.jobs) {
    const epc::EnodeB::Stats& e = job.enodeb;
    out["sim.events"] += job.events;
    out["epc.enodeb.dl_delivered"] += e.dl_delivered;
    out["epc.enodeb.dl_queue_drops"] += e.dl_queue_drops;
    out["epc.enodeb.dl_air_drops"] += e.dl_air_drops;
    out["epc.enodeb.dl_pdb_drops"] += e.dl_pdb_drops;
    out["epc.enodeb.dl_flushed"] += e.dl_flushed;
    out["epc.enodeb.ul_delivered"] += e.ul_delivered;
    out["epc.enodeb.ul_queue_drops"] += e.ul_queue_drops;
    out["epc.enodeb.ul_air_drops"] += e.ul_air_drops;
    out["epc.enodeb.rrc_setups"] += e.rrc_setups;
    out["epc.enodeb.rrc_releases"] += e.rrc_releases;
    out["epc.enodeb.counter_checks"] += e.counter_checks;
  }
  return out;
}

void print_counters(const Counters& counters) {
  std::string json = "COUNTERS {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    json += (first ? "\"" : ", \"") + name + "\": " + std::to_string(value);
    first = false;
  }
  std::printf("%s}\n", json.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// The two modes

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;
  std::string trace_out;
};

// The threads=1 reference run every later run is checked against,
// followed by the unrecorded warm-up run.
fleet::FleetResult reference_and_warm_up(const Workload& w,
                                         const Options& opt,
                                         Checker& checker) {
  fleet::FleetConfig serial = w.config;
  serial.threads = 1;
  fleet::FleetResult reference = fleet::run_fleet(serial);
  check_ingest(w.config, reference, checker);
  print_census(census_of(reference.receipts));
  checker.same(fingerprint_of(reference), run_workload(w, opt.state_dir),
               "warm-up run");
  return reference;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

int run_end_to_end(const Workload& w, const Options& opt) {
  Checker checker;
  const fleet::FleetResult reference = reference_and_warm_up(w, opt, checker);
  const Fingerprint ref = fingerprint_of(reference);
  print_counters(result_counters(reference));

  // Set-up repetitions are interleaved with the timed runs so that both
  // sample the host over the same window; a short burst of set-up reps
  // at the end swung by up to 60% between runs of one seed.
  std::vector<double> walls;
  std::vector<double> setup;
  const Clock::time_point deadline = deadline_after(opt.seconds);
  while (walls.size() < static_cast<std::size_t>(kMinTimedRuns) ||
         Clock::now() < deadline) {
    const Clock::time_point start = Clock::now();
    const fleet::FleetResult result = run_workload(w, opt.state_dir);
    walls.push_back(seconds_between(start, Clock::now()));
    checker.same(ref, result, "timed run " + std::to_string(walls.size()));
    setup.push_back(time_setup(w.config));
  }
  while (setup.size() < static_cast<std::size_t>(kMinSetupReps)) {
    setup.push_back(time_setup(w.config));
  }
  const double rss_mb = peak_rss_mb();

  std::vector<double> ues_per_s;
  std::vector<double> settled_per_s;
  for (double wall : walls) {
    ues_per_s.push_back(w.config.ue_count / wall);
    settled_per_s.push_back(static_cast<double>(ref.census.completed) / wall);
  }
  std::printf("timed runs: %zu, median wall %.4f s\n", walls.size(),
              median(walls));
  const std::vector<Metric> metrics = {
      {"ues_per_s", median(ues_per_s), "1/s"},
      {"settled_per_s", median(settled_per_s), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  print_result(checker.ok(), ref.census, metrics);
  return checker.ok() ? 0 : 1;
}

int run_traced_layers(const Workload& w, const Options& opt) {
  Checker checker;
  const fleet::FleetResult reference = reference_and_warm_up(w, opt, checker);
  const Fingerprint ref = fingerprint_of(reference);

  std::vector<double> detached_walls;
  std::vector<double> supervised_walls;
  std::vector<TracedRun> traced;
  const Clock::time_point deadline = deadline_after(opt.seconds);
  while (traced.size() < static_cast<std::size_t>(kMinTracedRounds) ||
         Clock::now() < deadline) {
    const std::string round = " (round " + std::to_string(traced.size() + 1) + ")";
    Clock::time_point start = Clock::now();
    fleet::FleetResult detached = fleet::run_fleet(w.config);
    detached_walls.push_back(seconds_between(start, Clock::now()));
    checker.same(ref, detached, "run_fleet" + round);

    traced.push_back(run_traced(w.config));
    checker.same(ref, traced.back().result, "traced pipeline" + round);
    checker.expect(fingerprint_of(traced.back().result) == fingerprint_of(detached),
                   "traced pipeline differs from run_fleet" + round);

    start = Clock::now();
    const fleet::FleetResult supervised = run_supervised(w.config, opt.state_dir);
    supervised_walls.push_back(seconds_between(start, Clock::now()));
    checker.same(ref, supervised, "run_supervised_fleet" + round);
  }

  const Counters counts = shard_counters(traced.front());
  for (const TracedRun& run : traced) {
    checker.expect(shard_counters(run) == counts,
                   "simulator or eNodeB counts differ between traced runs");
  }
  Counters all = result_counters(reference);
  all.insert(counts.begin(), counts.end());
  print_counters(all);

  // Per-run values, reported as medians over the traced runs.
  std::map<std::string, std::vector<double>> per_run;
  for (const TracedRun& run : traced) {
    const std::map<std::string, double> self = self_seconds(run);
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    std::vector<double> job_ms;
    std::vector<double> group_ms;
    double busy_s = 0.0;
    double failed_group_s = 0.0;
    for (const TracedJob& job : run.jobs) {
      job_ms.push_back(job.job_s * 1e3);
      busy_s += job.job_s;
      failed_group_s += job.failed_group_s;
      group_ms.insert(group_ms.end(), job.group_ms.begin(), job.group_ms.end());
    }
    per_run["crypto.keycache_build_s"].push_back(self_of("setup.keys"));
    per_run["fleet.shard_build_s"].push_back(self_of("shard.build"));
    per_run["sim.simulate_s"].push_back(self_of("shard.simulate"));
    per_run["sim.ns_per_event"].push_back(
        self_of("shard.simulate") * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(counts.at("sim.events"), 1)));
    per_run["core.settle_s"].push_back(self_of("shard.settle"));
    per_run["core.settle_ue_ms.p50"].push_back(quantile(group_ms, 0.5));
    per_run["core.settle_ue_ms.p99"].push_back(quantile(group_ms, 0.99));
    per_run["core.settle.failed_group_s"].push_back(failed_group_s);
    per_run["epc.ofcs.aggregate_s"].push_back(self_of("ofcs.aggregate"));
    per_run["fleet.digest_s"].push_back(self_of("digest"));
    per_run["fleet.shard_job.self_s"].push_back(self_of("shard.job"));
    per_run["fleet.run.self_s"].push_back(self_of("fleet.run"));
    per_run["fleet.shard_job_ms.p50"].push_back(quantile(job_ms, 0.5));
    per_run["fleet.shard_job_ms.max"].push_back(quantile(job_ms, 1.0));
    per_run["fleet.parallel_efficiency"].push_back(
        busy_s / (static_cast<double>(w.config.threads) * run.shard_phase_s));
    per_run["fleet.traced_wall_s"].push_back(run.wall_s);
  }
  const double traced_wall = median(per_run["fleet.traced_wall_s"]);

  auto count = [&](const char* name) {
    return static_cast<double>(all.at(name));
  };
  const transport::CodedCounters& coded = reference.coded_totals;
  std::vector<Metric> metrics;
  auto timing = [&](const char* name, const char* unit) {
    metrics.push_back({name, median(per_run.at(name)), unit});
  };
  timing("crypto.keycache_build_s", "s");
  timing("fleet.shard_build_s", "s");
  timing("sim.simulate_s", "s");
  metrics.push_back({"sim.events", count("sim.events"), "count"});
  timing("sim.ns_per_event", "ns");
  for (const char* name :
       {"epc.enodeb.dl_delivered", "epc.enodeb.dl_queue_drops",
        "epc.enodeb.dl_air_drops", "epc.enodeb.dl_pdb_drops",
        "epc.enodeb.ul_delivered", "epc.enodeb.counter_checks",
        "epc.enodeb.rrc_setups"}) {
    metrics.push_back({name, count(name), "count"});
  }
  timing("core.settle_s", "s");
  timing("core.settle_ue_ms.p50", "ms");
  timing("core.settle_ue_ms.p99", "ms");
  timing("core.settle.failed_group_s", "s");
  for (const char* name :
       {"core.settle.converged", "core.settle.retried", "core.settle.degraded",
        "core.settle.rejected_tamper"}) {
    metrics.push_back({name, count(name), "count"});
  }
  metrics.push_back({"core.settle.fail_ratio",
                     count("core.settle.failed") / count("core.settle.attempted"),
                     "ratio"});
  const double completed =
      count("core.settle.attempted") - count("core.settle.failed");
  metrics.push_back({"core.settle.rounds_per_completed",
                     completed > 0 ? count("core.settle.rounds_completed") / completed
                                   : 0.0,
                     "rounds"});
  metrics.push_back({"transport.retransmits", count("transport.retransmits"), "count"});
  for (const char* name :
       {"transport.coded.packets_sent", "transport.coded.packets_dependent",
        "transport.coded.generations", "transport.coded.fallbacks"}) {
    metrics.push_back({name, count(name), "count"});
  }
  metrics.push_back({"transport.coded.bytes_on_wire",
                     count("transport.coded.bytes_on_wire"), "B"});
  metrics.push_back(
      {"transport.coded.innovative_ratio",
       coded.packets_sent > 0
           ? static_cast<double>(coded.packets_delivered - coded.packets_dependent) /
                 static_cast<double>(coded.packets_sent)
           : 0.0,
       "ratio"});
  metrics.push_back({"transport.coded.wire_bytes_per_settlement",
                     count("transport.coded.bytes_on_wire") /
                         count("core.settle.attempted"),
                     "B"});
  timing("epc.ofcs.aggregate_s", "s");
  metrics.push_back({"charging.ingest.batches", count("charging.ingest.batches"), "count"});
  timing("fleet.digest_s", "s");
  timing("fleet.shard_job_ms.p50", "ms");
  timing("fleet.shard_job_ms.max", "ms");
  timing("fleet.parallel_efficiency", "ratio");
  timing("fleet.shard_job.self_s", "s");
  timing("fleet.run.self_s", "s");
  metrics.push_back({"recovery.supervision_tax_s",
                     median(supervised_walls) - median(detached_walls), "s"});
  metrics.push_back({"trace.overhead_s", traced_wall - median(detached_walls), "s"});

  std::printf("traced rounds: %zu, median wall: run_fleet %.4f s, traced %.4f s, "
              "supervised %.4f s\n",
              traced.size(), median(detached_walls), traced_wall,
              median(supervised_walls));
  if (!opt.trace_out.empty()) {
    write_spans(traced, opt.trace_out);
    std::printf("spans written to %s\n", opt.trace_out.c_str());
  }
  print_result(checker.ok(), ref.census, metrics);
  return checker.ok() ? 0 : 1;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--state-dir") {
      opt.state_dir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.state_dir.empty()) {
    return std::nullopt;
  }
  return opt;
}

}  // namespace
}  // namespace tlc::fleetbench

int main(int argc, char** argv) {
  using namespace tlc::fleetbench;
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --state-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const std::optional<Workload> w = make_workload(opt->workload, opt->seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt->workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %d UEs / %d shards, %d cycles, "
              "%u threads, state dir %s\n",
              w->name.c_str(), static_cast<unsigned long long>(opt->seed),
              w->config.ue_count, w->config.shards, w->config.base.cycles,
              w->config.threads, opt->state_dir.c_str());
  try {
    return opt->trace ? run_traced_layers(*w, *opt) : run_end_to_end(*w, *opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }
}
