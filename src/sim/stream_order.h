// Stream order for one user's generated packets (DESIGN.md §9).
//
// The generator produces a user's packets phase by phase, so they arrive as
// a few hundred time-sorted runs. The stream delivers them by time, ties in
// emission order — the order a std::stable_sort by time gives — but ordering
// 16-byte keys is far cheaper than moving 48-byte records, and the merge
// into EventBatch columns gathers each record once by its key.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "util/time.h"

namespace wildenergy::sim {

/// A packet's place in the stream: its time and its emission index.
struct PacketKey {
  std::int64_t time_us = 0;
  std::uint32_t index = 0;
};

/// Fill `keys` with one key per packet, in stream order: by time, ties in
/// emission (index) order. Every packet time must lie in [begin, end) and
/// there must be fewer than 2^32 packets. `buckets` is scratch; both
/// vectors keep their capacity for the next call.
void order_by_time(std::span<const trace::PacketRecord> packets, TimePoint begin, TimePoint end,
                   std::vector<PacketKey>& keys, std::vector<std::uint32_t>& buckets);

}  // namespace wildenergy::sim
