// Small-cell eNodeB.
//
// Implements the pieces of the base station the charging gap depends on:
//  * a strict-priority air scheduler over per-QCI drop-tail queues (QCI
//    3 > 7 > 9, per TS 23.203). Each QCI of each direction is one
//    logical FIFO shared by every flow in the class, so iperf background
//    traffic on QCI 9 congests the cell and same-class app traffic loses
//    proportionally — the Fig 3/13 effect — while QCI 7 gaming stays
//    clean (Fig 12d). The FIFO is stored per UE, each packet tagged with
//    its enqueue sequence number, and an index of the UEs with queued
//    traffic, ordered by their oldest packet, recovers the shared order.
//    The byte total and drop-tail limit stay per QCI;
//  * per-packet air loss from the UE's radio channel (BLER from RSS,
//    forced loss during outages). Downlink air loss happens *after* the
//    SPGW charged the packet — the core over-charging mechanism;
//  * downlink buffering across short outages: packets whose UE is out
//    of coverage stay queued (later packets for other UEs are served
//    around them) and drain on reconnect — the t=240 s gap dip in
//    Fig 4 — with overflow drops when the outage outlasts the queue;
//  * the RRC connection state machine with inactivity release, and the
//    RRC COUNTER CHECK procedure (§5.4) used as the operator's
//    tamper-resilient monitor: on every RRC release (and on demand at
//    cycle end) the eNodeB queries the hardware modem's cumulative
//    counters and reports them to the operator.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "epc/ids.hpp"
#include "epc/rrc.hpp"
#include "sim/packet.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "util/expected.hpp"

namespace tlc::epc {

/// The device side of the radio interface, implemented by UeDevice.
/// Counter reads model the hardware modem's statistics — tamper
/// resilient by construction (§5.4).
class RrcEndpoint {
 public:
  virtual ~RrcEndpoint() = default;
  /// Cumulative bytes the modem has transmitted on the uplink.
  [[nodiscard]] virtual std::uint64_t modem_tx_bytes() const = 0;
  /// Cumulative bytes the modem has received on the downlink.
  [[nodiscard]] virtual std::uint64_t modem_rx_bytes() const = 0;
  /// Delivers a downlink packet into the device.
  virtual void modem_deliver(const sim::Packet& packet) = 0;

  /// Handles an encoded RRC message from the base station and returns
  /// the encoded response. The default implements COUNTER CHECK from
  /// the modem counters — firmware behaviour the application processor
  /// cannot override, which is the §5.4 tamper-resilience argument.
  [[nodiscard]] virtual Expected<Bytes> handle_rrc(const Bytes& wire);
};

struct EnodebParams {
  /// Cell capacity per direction (20 MHz FDD band 2 small cell),
  /// calibrated so the Fig 3/13 background sweep (0-160 Mbps iperf)
  /// produces the paper's overload loss levels.
  double dl_capacity_bps = 115e6;
  double ul_capacity_bps = 100e6;
  /// Shared per-QCI drop-tail queue limit.
  std::uint32_t queue_limit_bytes = 1u << 20;
  /// RRC inactivity timeout before connection release.
  SimTime rrc_inactivity_timeout = 10 * kSecond;
  /// COUNTER CHECK request/response round trip over RRC.
  SimTime counter_check_delay = 20 * kMillisecond;
  /// Re-poll period when queued traffic cannot be served (all candidate
  /// UEs out of coverage).
  SimTime blocked_retry = 20 * kMillisecond;
  /// Delay-budget discard (§3.1 cause 5: the operator's middlebox/RLC
  /// drops frames that blew their latency requirement). A packet whose
  /// queue sojourn exceeds `pdb_discard_factor` x its QCI delay budget
  /// is dropped at dequeue. 0 disables.
  double pdb_discard_factor = 5.0;
};

class EnodeB {
 public:
  /// Counter-check report: modem-cumulative UL/DL bytes at `at`.
  using CounterCheckFn = std::function<void(
      Imsi, std::uint64_t ul_bytes, std::uint64_t dl_bytes, SimTime at)>;
  using UplinkSinkFn = std::function<void(Imsi, const sim::Packet&)>;

  struct Stats {
    std::uint64_t dl_delivered = 0;
    std::uint64_t dl_queue_drops = 0;
    std::uint64_t dl_air_drops = 0;
    std::uint64_t dl_pdb_drops = 0;  // exceeded delay budget in queue
    std::uint64_t dl_flushed = 0;    // dropped on detach
    std::uint64_t ul_delivered = 0;
    std::uint64_t ul_queue_drops = 0;
    std::uint64_t ul_air_drops = 0;
    std::uint64_t rrc_setups = 0;
    std::uint64_t rrc_releases = 0;
    std::uint64_t counter_checks = 0;
  };

  EnodeB(sim::Simulator& sim, EnodebParams params, Rng rng);

  /// Registers a UE served by this cell.
  void add_ue(Imsi imsi, RrcEndpoint* endpoint, sim::RadioChannel* radio);

  /// Detach: flushes the UE's queued traffic (counted as dl_flushed;
  /// those downlink bytes were already charged upstream).
  void remove_ue(Imsi imsi);

  /// Uplink packets that survive the air are forwarded here (-> SPGW).
  void set_uplink_sink(UplinkSinkFn sink) { uplink_sink_ = std::move(sink); }

  /// Activates the §5.4 tamper-resilient monitor.
  void set_counter_check_handler(CounterCheckFn handler) {
    counter_check_ = std::move(handler);
  }

  /// Downlink packet from the SPGW for `imsi`.
  void downlink_submit(Imsi imsi, const sim::Packet& packet);

  /// Uplink packet from the UE's modem.
  void uplink_submit(Imsi imsi, const sim::Packet& packet);

  /// On-demand COUNTER CHECK (the operator issues one at each charging
  /// cycle boundary). Silently skipped when the UE is out of coverage —
  /// that inaccuracy is part of the Fig 18 error budget.
  void request_counter_check(Imsi imsi);

  /// Applies the §2.1 "unlimited plan" throttle: the subscriber keeps
  /// service but is rate-limited (e.g. 128 kbps once the OFCS reports
  /// the quota exceeded). 0 clears the limit. Applies per direction via
  /// a token bucket at the scheduler.
  void set_rate_limit(Imsi imsi, double bps);
  [[nodiscard]] double rate_limit(Imsi imsi) const;

  [[nodiscard]] bool rrc_connected(Imsi imsi) const;
  [[nodiscard]] bool has_ue(Imsi imsi) const {
    return ues_.find(imsi) != ues_.end();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // QCI 3 / 7 / 9 -> queue index 0 / 1 / 2.
  static constexpr std::size_t kQueues = 3;
  [[nodiscard]] static std::size_t queue_index(sim::Qci qci);

  struct QueuedPacket {
    std::uint64_t seq;  // enqueue order within the packet's QCI queue
    sim::Packet packet;
  };

  /// One UE's packets of one QCI in one direction, oldest first. An empty
  /// FIFO owns no memory; a drained one keeps its capacity for reuse.
  class Fifo {
   public:
    [[nodiscard]] bool empty() const { return head_ == items_.size(); }
    [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
    [[nodiscard]] const QueuedPacket& operator[](std::size_t i) const {
      return items_[head_ + i];
    }
    void push_back(const QueuedPacket& entry) { items_.push_back(entry); }
    void pop_front();
    void erase(std::size_t i);
    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<QueuedPacket> items_;
    std::size_t head_ = 0;
  };

  enum Side : std::size_t { kDownlink = 0, kUplink = 1 };

  struct UeCtx {
    RrcEndpoint* endpoint = nullptr;
    sim::RadioChannel* radio = nullptr;
    bool rrc_connected = false;
    SimTime last_activity = 0;
    // Quota throttle (token bucket; 0 bps = unlimited).
    double rate_limit_bps = 0.0;
    double tokens_bytes = 0.0;
    SimTime tokens_updated = 0;
    // Queued traffic, by side and QCI queue index.
    std::array<std::array<Fifo, kQueues>, 2> fifos;
  };

  /// Token-bucket admission for a throttled UE; consumes on success.
  bool consume_rate_tokens(UeCtx& ue, std::uint32_t size_bytes);
  [[nodiscard]] bool rate_tokens_available(const UeCtx& ue,
                                           std::uint32_t size_bytes) const;

  /// A UE with queued traffic in one QCI queue, keyed by the sequence
  /// number of its oldest packet there.
  struct HeadRef {
    std::uint64_t seq;
    Imsi imsi;
    UeCtx* ue;
  };
  struct QueueSet {
    explicit QueueSet(Side s) : side(s) {}
    Side side;
    /// Per QCI: the UEs with queued packets, in increasing head seq, so
    /// heads.front() holds the oldest packet of the logical QCI FIFO.
    std::array<std::vector<HeadRef>, kQueues> heads;
    std::array<std::uint64_t, kQueues> bytes{};
    std::uint64_t next_seq = 0;
  };
  /// A packet chosen by pick(): queue, index into heads, FIFO position.
  struct Choice {
    std::size_t queue = 0;
    std::size_t index = 0;
    std::size_t pos = 0;
  };
  struct Served {
    Imsi imsi;
    sim::Packet packet;
  };

  void touch_rrc(Imsi imsi, UeCtx& ue);
  void check_inactivity(Imsi imsi);
  void release_rrc(Imsi imsi, UeCtx& ue);
  void do_counter_check(Imsi imsi);

  bool enqueue(QueueSet& set, Imsi imsi, UeCtx& ue,
               const sim::Packet& packet);
  /// Finds the earliest-enqueued servable packet by strict priority,
  /// skipping UEs out of coverage (their packets stay queued) and, for a
  /// throttled UE, packets its token bucket cannot cover yet. Returns
  /// false when nothing can be served now.
  bool pick(const QueueSet& set, Choice& out);
  /// Removes the chosen packet and charges its UE's token bucket.
  Served take(QueueSet& set, const Choice& choice);
  /// Pops the head of heads[q][index]'s FIFO and restores head order.
  static void pop_head(QueueSet& set, std::size_t q, std::size_t index);
  static void flush_ue(QueueSet& set, UeCtx& ue,
                       std::uint64_t& flush_counter);

  void serve_dl();
  void serve_ul();

  sim::Simulator& sim_;
  EnodebParams params_;
  Rng rng_;
  std::map<Imsi, UeCtx> ues_;
  QueueSet dl_{kDownlink};
  QueueSet ul_{kUplink};
  UplinkSinkFn uplink_sink_;
  CounterCheckFn counter_check_;
  Stats stats_;
  std::uint32_t next_rrc_transaction_ = 1;
  bool dl_serving_ = false;
  bool ul_serving_ = false;
  bool dl_retry_armed_ = false;
  bool ul_retry_armed_ = false;
};

}  // namespace tlc::epc
