// Wire codec for settlement receipts and for one shard's settled batch,
// which the supervised fleet checkpoints per shard. Receipts are pure
// functions of their inputs, so a checkpoint spliced back in is
// bit-identical to re-settling the shard — every PoC byte included.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_settlement.hpp"
#include "transport/transport_config.hpp"
#include "util/expected.hpp"
#include "util/serde.hpp"

namespace tlc::transport {

/// Full-fidelity receipt codec (every field round-trips exactly,
/// poc_wire included) — shared by the chunk records here and by tests.
void write_receipt(ByteWriter& w, const core::SettlementReceipt& receipt);
[[nodiscard]] Expected<core::SettlementReceipt> read_receipt(ByteReader& r);

/// One shard's settled batch (`chunk_index` = shard index): receipts
/// plus the coded-path census, all-zero off the coded path. Splicing
/// the counters back keeps supervised coded runs byte-identical.
struct SettlementChunk {
  std::uint32_t chunk_index = 0;
  std::vector<core::SettlementReceipt> receipts;
  CodedCounters coded;
};

[[nodiscard]] Bytes encode_settlement_chunk(
    std::uint32_t chunk_index,
    const std::vector<core::SettlementReceipt>& receipts,
    const CodedCounters& coded);
[[nodiscard]] Expected<SettlementChunk> decode_settlement_chunk(
    const Bytes& data);

}  // namespace tlc::transport
