#include "epc/enodeb.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace tlc::epc {

Expected<Bytes> RrcEndpoint::handle_rrc(const Bytes& wire) {
  auto check = RrcCounterCheck::decode(wire);
  if (!check) return Err(check.error());
  RrcCounterCheckResponse response;
  response.transaction_id = check->transaction_id;
  response.uplink_bytes = modem_tx_bytes();
  response.downlink_bytes = modem_rx_bytes();
  return response.encode();
}

EnodeB::EnodeB(sim::Simulator& sim, EnodebParams params, Rng rng)
    : sim_(sim), params_(params), rng_(rng) {}

std::size_t EnodeB::queue_index(sim::Qci qci) {
  switch (qci) {
    case sim::Qci::kQci3:
      return 0;
    case sim::Qci::kQci7:
      return 1;
    case sim::Qci::kQci9:
      return 2;
  }
  return 2;
}

void EnodeB::add_ue(Imsi imsi, RrcEndpoint* endpoint,
                    sim::RadioChannel* radio) {
  UeCtx& ue = ues_[imsi];
  ue.endpoint = endpoint;
  ue.radio = radio;
  ue.last_activity = sim_.now();
}

void EnodeB::Fifo::pop_front() {
  ++head_;
  if (head_ == items_.size()) {
    clear();
  } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
    // Reclaim the served prefix once it is half the buffer.
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void EnodeB::Fifo::erase(std::size_t i) {
  items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(head_ + i));
}

void EnodeB::flush_ue(QueueSet& set, UeCtx& ue,
                      std::uint64_t& flush_counter) {
  for (std::size_t q = 0; q < kQueues; ++q) {
    Fifo& fifo = ue.fifos[set.side][q];
    if (fifo.empty()) continue;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      set.bytes[q] -= fifo[i].packet.size_bytes;
    }
    flush_counter += fifo.size();
    fifo.clear();
    auto& heads = set.heads[q];
    heads.erase(std::find_if(heads.begin(), heads.end(),
                             [&ue](const HeadRef& h) { return h.ue == &ue; }));
  }
}

void EnodeB::remove_ue(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  flush_ue(dl_, it->second, stats_.dl_flushed);
  flush_ue(ul_, it->second, stats_.ul_queue_drops);
  ues_.erase(it);
}

void EnodeB::touch_rrc(Imsi imsi, UeCtx& ue) {
  ue.last_activity = sim_.now();
  if (!ue.rrc_connected) {
    ue.rrc_connected = true;
    ++stats_.rrc_setups;
    sim_.schedule_after(params_.rrc_inactivity_timeout,
                        [this, imsi] { check_inactivity(imsi); });
  }
}

void EnodeB::check_inactivity(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end() || !it->second.rrc_connected) return;
  UeCtx& ue = it->second;
  const SimTime idle = sim_.now() - ue.last_activity;
  if (idle >= params_.rrc_inactivity_timeout) {
    release_rrc(imsi, ue);
  } else {
    sim_.schedule_after(params_.rrc_inactivity_timeout - idle,
                        [this, imsi] { check_inactivity(imsi); });
  }
}

void EnodeB::release_rrc(Imsi imsi, UeCtx& ue) {
  // §5.4: before releasing the connection the base station queries the
  // device-received traffic with RRC COUNTER CHECK.
  if (counter_check_ && ue.radio->connected(sim_.now())) {
    do_counter_check(imsi);
  }
  ue.rrc_connected = false;
  ++stats_.rrc_releases;
  TLC_DEBUG("enodeb") << "RRC release for " << imsi.to_string() << " at "
                      << format_time(sim_.now());
}

void EnodeB::do_counter_check(Imsi imsi) {
  ++stats_.counter_checks;
  const std::uint32_t transaction = next_rrc_transaction_++;
  // The response returns after one RRC round trip; counters are read at
  // response time (the modem answers with its state when it replies).
  sim_.schedule_after(params_.counter_check_delay, [this, imsi, transaction] {
    auto it = ues_.find(imsi);
    if (it == ues_.end() || counter_check_ == nullptr) return;
    const RrcCounterCheck check{transaction};
    auto response_wire = it->second.endpoint->handle_rrc(check.encode());
    if (!response_wire) {
      TLC_WARN("enodeb") << "counter check failed: " << response_wire.error();
      return;
    }
    auto response = RrcCounterCheckResponse::decode(*response_wire);
    if (!response || response->transaction_id != transaction) {
      TLC_WARN("enodeb") << "counter check response invalid";
      return;
    }
    counter_check_(imsi, response->uplink_bytes, response->downlink_bytes,
                   sim_.now());
  });
}

void EnodeB::request_counter_check(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  if (!it->second.radio->connected(sim_.now())) return;  // unreachable
  do_counter_check(imsi);
}

bool EnodeB::rrc_connected(Imsi imsi) const {
  auto it = ues_.find(imsi);
  return it != ues_.end() && it->second.rrc_connected;
}

void EnodeB::set_rate_limit(Imsi imsi, double bps) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  it->second.rate_limit_bps = bps;
  it->second.tokens_bytes = 0.0;
  it->second.tokens_updated = sim_.now();
}

double EnodeB::rate_limit(Imsi imsi) const {
  auto it = ues_.find(imsi);
  return it == ues_.end() ? 0.0 : it->second.rate_limit_bps;
}

namespace {

/// Token bucket burst allowance: one second of the limited rate.
double bucket_cap(double bps) { return bps / 8.0; }

}  // namespace

bool EnodeB::rate_tokens_available(const UeCtx& ue,
                                   std::uint32_t size_bytes) const {
  if (ue.rate_limit_bps <= 0.0) return true;
  const double elapsed_s = to_seconds(sim_.now() - ue.tokens_updated);
  const double tokens = std::min(
      bucket_cap(ue.rate_limit_bps),
      ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
  return tokens >= static_cast<double>(size_bytes);
}

bool EnodeB::consume_rate_tokens(UeCtx& ue, std::uint32_t size_bytes) {
  if (ue.rate_limit_bps <= 0.0) return true;
  const SimTime now = sim_.now();
  const double elapsed_s = to_seconds(now - ue.tokens_updated);
  ue.tokens_bytes = std::min(
      bucket_cap(ue.rate_limit_bps),
      ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
  ue.tokens_updated = now;
  if (ue.tokens_bytes < static_cast<double>(size_bytes)) return false;
  ue.tokens_bytes -= static_cast<double>(size_bytes);
  return true;
}

bool EnodeB::enqueue(QueueSet& set, Imsi imsi, UeCtx& ue,
                     const sim::Packet& packet) {
  const std::size_t q = queue_index(packet.qci);
  if (set.bytes[q] + packet.size_bytes > params_.queue_limit_bytes) {
    return false;
  }
  Fifo& fifo = ue.fifos[set.side][q];
  const std::uint64_t seq = set.next_seq++;
  // A UE whose FIFO was empty now holds the youngest head of the queue.
  if (fifo.empty()) set.heads[q].push_back(HeadRef{seq, imsi, &ue});
  fifo.push_back(QueuedPacket{seq, packet});
  set.bytes[q] += packet.size_bytes;
  return true;
}

void EnodeB::downlink_submit(Imsi imsi, const sim::Packet& packet) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) {
    return;  // no context (detached): dies here, uncharged downstream
  }
  if (!enqueue(dl_, imsi, it->second, packet)) {
    ++stats_.dl_queue_drops;
    return;
  }
  if (!dl_serving_) serve_dl();
}

void EnodeB::uplink_submit(Imsi imsi, const sim::Packet& packet) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  touch_rrc(imsi, it->second);
  if (!enqueue(ul_, imsi, it->second, packet)) {
    ++stats_.ul_queue_drops;
    return;
  }
  if (!ul_serving_) serve_ul();
}

bool EnodeB::pick(const QueueSet& set, Choice& out) {
  const SimTime now = sim_.now();
  for (std::size_t q = 0; q < kQueues; ++q) {
    const auto& heads = set.heads[q];
    // Walk the UEs oldest head first while one could still hold a packet
    // older than the best found. An unthrottled connected UE's head always
    // fits and ends the walk; a throttled UE may be served a later packet
    // that fits its bucket ahead of its head.
    constexpr auto kNone = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t best = kNone;
    for (std::size_t i = 0; i < heads.size() && heads[i].seq < best; ++i) {
      const UeCtx& ue = *heads[i].ue;
      if (!ue.radio->connected(now)) continue;
      const Fifo& fifo = ue.fifos[set.side][q];
      for (std::size_t pos = 0; pos < fifo.size() && fifo[pos].seq < best;
           ++pos) {
        if (rate_tokens_available(ue, fifo[pos].packet.size_bytes)) {
          best = fifo[pos].seq;
          out = Choice{q, i, pos};
          break;
        }
      }
    }
    if (best != kNone) return true;
  }
  return false;
}

void EnodeB::pop_head(QueueSet& set, std::size_t q, std::size_t index) {
  auto& heads = set.heads[q];
  const auto from = heads.begin() + static_cast<std::ptrdiff_t>(index);
  Fifo& fifo = from->ue->fifos[set.side][q];
  fifo.pop_front();
  if (fifo.empty()) {
    heads.erase(from);
    return;
  }
  // The UE's next packet is younger than its old head: move it back.
  const std::uint64_t seq = fifo[0].seq;
  const auto to = std::partition_point(
      from + 1, heads.end(), [seq](const HeadRef& h) { return h.seq < seq; });
  std::rotate(from, from + 1, to);
  (to - 1)->seq = seq;
}

EnodeB::Served EnodeB::take(QueueSet& set, const Choice& choice) {
  const HeadRef ref = set.heads[choice.queue][choice.index];
  Fifo& fifo = ref.ue->fifos[set.side][choice.queue];
  const Served served{ref.imsi, fifo[choice.pos].packet};
  set.bytes[choice.queue] -= served.packet.size_bytes;
  if (choice.pos == 0) {
    pop_head(set, choice.queue, choice.index);
  } else {
    fifo.erase(choice.pos);
  }
  consume_rate_tokens(*ref.ue, served.packet.size_bytes);
  return served;
}

void EnodeB::serve_dl() {
  // Delay-budget discard before service: stale head-of-line packets
  // (typically buffered through an outage) are dropped, not delivered.
  if (params_.pdb_discard_factor > 0.0) {
    for (std::size_t q = 0; q < kQueues; ++q) {
      auto& heads = dl_.heads[q];
      while (!heads.empty()) {
        const sim::Packet& head =
            heads.front().ue->fifos[kDownlink][q][0].packet;
        const auto budget = static_cast<SimTime>(
            params_.pdb_discard_factor *
            static_cast<double>(sim::qci_delay_budget(head.qci)));
        if (sim_.now() - head.created_at <= budget) break;
        dl_.bytes[q] -= head.size_bytes;
        pop_head(dl_, q, 0);
        ++stats_.dl_pdb_drops;
      }
    }
  }

  Choice choice;
  if (!pick(dl_, choice)) {
    dl_serving_ = false;
    // Traffic may be waiting for a UE out of coverage: poll again while
    // any DL queue is non-empty.
    bool pending = false;
    for (const auto& heads : dl_.heads) pending = pending || !heads.empty();
    if (pending && !dl_retry_armed_) {
      dl_retry_armed_ = true;
      sim_.schedule_after(params_.blocked_retry, [this] {
        dl_retry_armed_ = false;
        if (!dl_serving_) serve_dl();
      });
    }
    return;
  }

  dl_serving_ = true;
  const Served entry = take(dl_, choice);

  const double tx_seconds = static_cast<double>(entry.packet.size_bytes) *
                            8.0 / params_.dl_capacity_bps;
  sim_.schedule_after(from_seconds(tx_seconds), [this, entry] {
    auto it = ues_.find(entry.imsi);
    if (it != ues_.end()) {
      UeCtx& target = it->second;
      const double loss = target.radio->packet_loss_probability(sim_.now());
      if (rng_.chance(loss)) {
        ++stats_.dl_air_drops;
      } else {
        ++stats_.dl_delivered;
        touch_rrc(entry.imsi, target);
        target.endpoint->modem_deliver(entry.packet);
      }
    }
    dl_serving_ = false;
    serve_dl();
  });
}

void EnodeB::serve_ul() {
  Choice choice;
  if (!pick(ul_, choice)) {
    ul_serving_ = false;
    bool pending = false;
    for (const auto& heads : ul_.heads) pending = pending || !heads.empty();
    if (pending && !ul_retry_armed_) {
      ul_retry_armed_ = true;
      sim_.schedule_after(params_.blocked_retry, [this] {
        ul_retry_armed_ = false;
        if (!ul_serving_) serve_ul();
      });
    }
    return;
  }

  ul_serving_ = true;
  const Served entry = take(ul_, choice);

  const double tx_seconds = static_cast<double>(entry.packet.size_bytes) *
                            8.0 / params_.ul_capacity_bps;
  sim_.schedule_after(from_seconds(tx_seconds), [this, entry] {
    auto it = ues_.find(entry.imsi);
    if (it != ues_.end()) {
      UeCtx& source = it->second;
      const double loss = source.radio->packet_loss_probability(sim_.now());
      if (rng_.chance(loss)) {
        ++stats_.ul_air_drops;
      } else {
        ++stats_.ul_delivered;
        if (uplink_sink_) uplink_sink_(entry.imsi, entry.packet);
      }
    }
    ul_serving_ = false;
    serve_ul();
  });
}

}  // namespace tlc::epc
