#include "core/protocol.hpp"

#include <algorithm>

#include "charging/plan.hpp"
#include "util/logging.hpp"

// Sequence-number convention: seq carries the Algorithm-1 round number.
// A CDR claiming in round k has seq = k; the CDA that accepts a round-k
// pair has seq = k (hence the verifier's "se == so" check holds on any
// flow); the PoC finalizing round k has seq = k + 1.

namespace tlc::core {

const char* endpoint_state_name(EndpointState state) {
  switch (state) {
    case EndpointState::Null:
      return "Null";
    case EndpointState::SentCdr:
      return "CDR";
    case EndpointState::SentCda:
      return "CDA";
    case EndpointState::Done:
      return "PoC";
    case EndpointState::Failed:
      return "Failed";
  }
  return "?";
}

ProtocolEndpoint::ProtocolEndpoint(EndpointConfig config, Strategy& strategy,
                                   Rng rng)
    : config_(std::move(config)), strategy_(strategy), rng_(rng) {
  if (!config_.crypto_clock) config_.crypto_clock = util::monotonic_nanos;
  // Endpoints sign/verify on every round: warm the keys' Montgomery
  // contexts up front (no-op when the keys came from rsa_generate or
  // deserialize, which already carry them).
  config_.own_private.precompute();
  config_.own_public.precompute();
  config_.peer_public.precompute();
}

RoundContext ProtocolEndpoint::make_context() const {
  return RoundContext{config_.role, config_.view, lower_,
                      upper_,       claims_made_, config_.plan.c};
}

Bytes ProtocolEndpoint::timed_sign(const Bytes& message) {
  const std::uint64_t start = config_.crypto_clock();
  Bytes signature = crypto::rsa_sign(config_.own_private, message);
  record_crypto_nanos(config_.crypto_clock() - start);
  return signature;
}

Status ProtocolEndpoint::timed_verify(const Bytes& message,
                                      const Bytes& signature) {
  const std::uint64_t start = config_.crypto_clock();
  Status status = crypto::rsa_verify(config_.peer_public, message, signature);
  record_crypto_nanos(config_.crypto_clock() - start);
  return status;
}

void ProtocolEndpoint::record_crypto_nanos(std::uint64_t elapsed) {
  crypto_seconds_ +=
      static_cast<double>(elapsed) * 1e-9 * config_.crypto_time_scale;
}

void ProtocolEndpoint::send_wire(const Bytes& wire) {
  bytes_sent_ += wire.size();
  ++messages_sent_;
  if (send_) send_(wire);
}

void ProtocolEndpoint::fail(const std::string& reason) {
  state_ = EndpointState::Failed;
  if (failure_reason_.empty()) failure_reason_ = reason;
  // Debug: the receipt carries the reason and the OFCS census counts it.
  TLC_DEBUG("tlc-proto") << role_name(config_.role)
                         << " negotiation failed: " << reason;
}

Status ProtocolEndpoint::reject_tamper(const std::string& reason) {
  ++tamper_suspected_;
  if (!config_.tolerate_faults) fail(reason);
  return Err(reason);
}

bool ProtocolEndpoint::is_duplicate(const Bytes& wire) const {
  return std::find(processed_wires_.begin(), processed_wires_.end(), wire) !=
         processed_wires_.end();
}

void ProtocolEndpoint::mark_processed(const Bytes& wire) {
  // Bounded memory: old wires cannot recur on a drained channel, so
  // forgetting the oldest is safe.
  constexpr std::size_t kMaxRemembered = 128;
  if (processed_wires_.size() >= kMaxRemembered) {
    processed_wires_.erase(processed_wires_.begin());
  }
  processed_wires_.push_back(wire);
}

void ProtocolEndpoint::update_bounds(std::uint64_t a, std::uint64_t b) {
  lower_ = std::max(lower_, std::min(a, b));
  upper_ = std::min(upper_, std::max(a, b));
}

void ProtocolEndpoint::send_cdr() {
  if (current_round_ >= config_.max_rounds) {
    fail("round cap reached");
    return;
  }
  own_claim_ = strategy_.claim(make_context());
  ++claims_made_;
  own_nonce_ = rng_.next_u64();

  CdrMessage body;
  body.plan = config_.plan;
  body.sender = config_.role;
  body.seq = static_cast<std::uint64_t>(current_round_);
  body.nonce = own_nonce_;
  body.volume = own_claim_;

  SignedCdr cdr{body, timed_sign(encode_cdr_body(body))};
  last_sent_cdr_wire_ = encode_signed_cdr(cdr);
  last_cdr_size_ = last_sent_cdr_wire_.size();
  state_ = EndpointState::SentCdr;
  send_wire(last_sent_cdr_wire_);
}

void ProtocolEndpoint::start() {
  current_round_ = 0;
  send_cdr();
}

Status ProtocolEndpoint::receive(const Bytes& wire) {
  // Idempotent delivery: an exact duplicate of a message this endpoint
  // already acted on is acknowledged and dropped — it must neither
  // advance the state machine nor abort a finished negotiation.
  if (is_duplicate(wire)) {
    ++duplicates_ignored_;
    return Status::Ok();
  }
  if (state_ == EndpointState::Done || state_ == EndpointState::Failed) {
    return Err("endpoint is no longer negotiating");
  }
  auto type = peek_type(wire);
  if (!type) {
    return reject_tamper(type.error());
  }
  Status status = [&]() -> Status {
    switch (*type) {
      case MessageType::Cdr:
        return handle_cdr(wire);
      case MessageType::Cda:
        return handle_cda(wire);
      case MessageType::Poc:
        return handle_poc(wire);
    }
    return Err("unreachable");
  }();
  if (status) mark_processed(wire);
  return status;
}

Status ProtocolEndpoint::handle_cdr(const Bytes& wire) {
  auto decoded = decode_signed_cdr(wire);
  if (!decoded) {
    return reject_tamper(decoded.error());
  }
  const SignedCdr& cdr = *decoded;
  if (cdr.body.sender != other_party(config_.role)) {
    return reject_tamper("cdr: sender role mismatch");
  }
  if (auto s = timed_verify(encode_cdr_body(cdr.body), cdr.signature); !s) {
    return reject_tamper(s.error());
  }
  if (cdr.body.plan != config_.plan) {
    return reject_tamper("cdr: data plan mismatch");
  }

  const auto round = static_cast<int>(cdr.body.seq);
  const std::uint64_t peer_claim = cdr.body.volume;

  // Line-12 constraint: an out-of-window claim is a detectable
  // violation; reject it without letting it move the bounds.
  const bool violates = peer_claim < lower_ || peer_claim > upper_;

  if (state_ == EndpointState::SentCdr && round == current_round_) {
    // I already claimed this round and now hold the peer's same-round
    // claim. Normally that means the peer rejected mine (an accepting
    // peer sends a CDA) — but when both parties initiated the same
    // round simultaneously, nobody has decided anything yet. To keep
    // Fig 7 deadlock-free, exactly one side (the edge vendor, whose
    // state machine has the "recv CDR, send CDA" edge from the CDR
    // state) may answer with a CDA when it accepts; the operator always
    // treats the counter-CDR as a rejection and re-claims.
    peer_nonce_ = cdr.body.nonce;
    if (violates) {
      ++bound_violations_;
      ++current_round_;
      send_cdr();
      return Status::Ok();
    }
    if (config_.role == PartyRole::EdgeVendor &&
        strategy_.accept(make_context(), own_claim_, peer_claim)) {
      own_nonce_ = rng_.next_u64();
      CdaMessage body;
      body.plan = config_.plan;
      body.sender = config_.role;
      body.seq = static_cast<std::uint64_t>(current_round_);
      body.nonce = own_nonce_;
      body.volume = own_claim_;
      body.peer_cdr_wire = wire;
      SignedCda cda{body, timed_sign(encode_cda_body(body))};
      last_sent_cda_wire_ = encode_signed_cda(cda);
      last_cda_size_ = last_sent_cda_wire_.size();
      state_ = EndpointState::SentCda;
      send_wire(last_sent_cda_wire_);
      return Status::Ok();
    }
    update_bounds(own_claim_, peer_claim);
    ++current_round_;
    send_cdr();
    return Status::Ok();
  }

  if (round < current_round_) {
    return Err("cdr: stale round (replay?)");  // drop silently
  }

  // A new round opened by the peer: form my claim and decide.
  current_round_ = round;
  if (current_round_ >= config_.max_rounds) {
    fail("round cap reached");
    return Err("round cap reached");
  }
  if (violates) {
    ++bound_violations_;
    ++current_round_;
    send_cdr();  // implicit reject; do not honor the violating claim
    return Status::Ok();
  }

  const RoundContext ctx = make_context();
  const std::uint64_t my_claim = strategy_.claim(ctx);
  const bool accept = strategy_.accept(ctx, my_claim, peer_claim);
  peer_nonce_ = cdr.body.nonce;

  if (!accept) {
    own_claim_ = my_claim;
    ++claims_made_;
    update_bounds(my_claim, peer_claim);
    // Publish my same-round claim as the implicit rejection.
    own_nonce_ = rng_.next_u64();
    CdrMessage body;
    body.plan = config_.plan;
    body.sender = config_.role;
    body.seq = static_cast<std::uint64_t>(current_round_);
    body.nonce = own_nonce_;
    body.volume = own_claim_;
    SignedCdr reject{body, timed_sign(encode_cdr_body(body))};
    last_sent_cdr_wire_ = encode_signed_cdr(reject);
    last_cdr_size_ = last_sent_cdr_wire_.size();
    state_ = EndpointState::SentCdr;
    send_wire(last_sent_cdr_wire_);
    return Status::Ok();
  }

  // Accept: answer with a CDA echoing the peer's signed CDR.
  own_claim_ = my_claim;
  ++claims_made_;
  own_nonce_ = rng_.next_u64();

  CdaMessage body;
  body.plan = config_.plan;
  body.sender = config_.role;
  body.seq = static_cast<std::uint64_t>(current_round_);
  body.nonce = own_nonce_;
  body.volume = own_claim_;
  body.peer_cdr_wire = wire;

  SignedCda cda{body, timed_sign(encode_cda_body(body))};
  last_sent_cda_wire_ = encode_signed_cda(cda);
  last_cda_size_ = last_sent_cda_wire_.size();
  state_ = EndpointState::SentCda;
  send_wire(last_sent_cda_wire_);
  return Status::Ok();
}

Status ProtocolEndpoint::handle_cda(const Bytes& wire) {
  if (state_ != EndpointState::SentCdr) {
    return Err("cda: unexpected in state " +
               std::string(endpoint_state_name(state_)));
  }
  auto decoded = decode_signed_cda(wire);
  if (!decoded) {
    return reject_tamper(decoded.error());
  }
  const SignedCda& cda = *decoded;
  if (cda.body.sender != other_party(config_.role)) {
    return reject_tamper("cda: sender role mismatch");
  }
  if (auto s = timed_verify(encode_cda_body(cda.body), cda.signature); !s) {
    return reject_tamper(s.error());
  }
  if (cda.body.plan != config_.plan) {
    return reject_tamper("cda: data plan mismatch");
  }
  if (static_cast<int>(cda.body.seq) != current_round_) {
    // Stale acceptance of an earlier round's CDR — happens legitimately
    // when both parties initiated and messages crossed; drop it.
    return Err("cda: round mismatch (stale or replay)");
  }
  if (cda.body.peer_cdr_wire != last_sent_cdr_wire_) {
    return reject_tamper("cda: echoed CDR does not match what we sent");
  }

  const std::uint64_t peer_claim = cda.body.volume;
  const bool violates = peer_claim < lower_ || peer_claim > upper_;
  if (violates) {
    ++bound_violations_;
    ++current_round_;
    send_cdr();
    return Status::Ok();
  }

  const RoundContext ctx = make_context();
  const bool accept = strategy_.accept(ctx, own_claim_, peer_claim);
  peer_nonce_ = cda.body.nonce;
  if (!accept) {
    update_bounds(own_claim_, peer_claim);
    ++current_round_;
    send_cdr();
    return Status::Ok();
  }

  // Both sides accepted the round: construct the PoC (lines 7-9).
  negotiated_ =
      charging::charged_volume(own_claim_, peer_claim, config_.plan.c);

  PocMessage body;
  body.plan = config_.plan;
  body.sender = config_.role;
  body.seq = static_cast<std::uint64_t>(current_round_) + 1;
  body.charged = negotiated_;
  body.cda_wire = wire;

  const std::uint64_t nonce_edge = config_.role == PartyRole::EdgeVendor
                                       ? own_nonce_
                                       : cda.body.nonce;
  const std::uint64_t nonce_operator = config_.role == PartyRole::Operator
                                           ? own_nonce_
                                           : cda.body.nonce;
  SignedPoc poc;
  poc.body = body;
  poc.signature = timed_sign(encode_poc_body(body));
  poc.nonce_edge = nonce_edge;
  poc.nonce_operator = nonce_operator;
  poc_ = poc;

  const Bytes poc_wire = encode_signed_poc(poc);
  last_poc_size_ = poc_wire.size();
  state_ = EndpointState::Done;
  send_wire(poc_wire);
  return Status::Ok();
}

Status ProtocolEndpoint::handle_poc(const Bytes& wire) {
  if (state_ != EndpointState::SentCda) {
    return Err("poc: unexpected in state " +
               std::string(endpoint_state_name(state_)));
  }
  auto decoded = decode_signed_poc(wire);
  if (!decoded) {
    return reject_tamper(decoded.error());
  }
  const SignedPoc& poc = *decoded;
  if (poc.body.sender != other_party(config_.role)) {
    return reject_tamper("poc: sender role mismatch");
  }
  if (auto s = timed_verify(encode_poc_body(poc.body), poc.signature); !s) {
    return reject_tamper(s.error());
  }
  if (poc.body.plan != config_.plan) {
    return reject_tamper("poc: data plan mismatch");
  }
  if (poc.body.cda_wire != last_sent_cda_wire_) {
    return reject_tamper("poc: embedded CDA does not match what we sent");
  }

  // Recompute x from the claims inside the nested messages and check
  // the constructor did not misreport it.
  auto inner_cda = decode_signed_cda(poc.body.cda_wire);
  if (!inner_cda) {
    return reject_tamper(inner_cda.error());
  }
  auto inner_cdr = decode_signed_cdr(inner_cda->body.peer_cdr_wire);
  if (!inner_cdr) {
    return reject_tamper(inner_cdr.error());
  }
  const std::uint64_t expected = charging::charged_volume(
      inner_cda->body.volume, inner_cdr->body.volume, config_.plan.c);
  if (expected != poc.body.charged) {
    return reject_tamper("poc: charged volume inconsistent with claims");
  }

  negotiated_ = poc.body.charged;
  poc_ = poc;
  last_poc_size_ = wire.size();
  state_ = EndpointState::Done;
  return Status::Ok();
}

}  // namespace tlc::core
