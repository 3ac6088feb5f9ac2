#include "sim/stream_order.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace wildenergy::sim {

namespace {

/// Sort keys[lo, hi) by (time, index). The keys enter in index order, so an
/// insertion sort on time alone with a strict `<` keeps ties in emission
/// order; an unusually full bucket falls back to std::sort on the full key,
/// which orders ties the same way.
void sort_bucket(std::vector<PacketKey>& keys, std::size_t lo, std::size_t hi) {
  if (hi - lo > 64) {
    std::sort(keys.begin() + static_cast<std::ptrdiff_t>(lo),
              keys.begin() + static_cast<std::ptrdiff_t>(hi),
              [](const PacketKey& a, const PacketKey& b) {
                return a.time_us < b.time_us || (a.time_us == b.time_us && a.index < b.index);
              });
    return;
  }
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const PacketKey key = keys[i];
    std::size_t j = i;
    for (; j > lo && key.time_us < keys[j - 1].time_us; --j) keys[j] = keys[j - 1];
    keys[j] = key;
  }
}

}  // namespace

// A counting pass scatters the keys, in emission order, into time buckets of
// 8 to 16 keys on average spanning [begin, end); each bucket is then sorted
// on its own. Runs of sorted input leave every bucket nearly sorted, so the
// insertion sort does little work.
void order_by_time(std::span<const trace::PacketRecord> packets, TimePoint begin, TimePoint end,
                   std::vector<PacketKey>& keys, std::vector<std::uint32_t>& buckets) {
  const std::size_t n = packets.size();
  assert(n <= UINT32_MAX);
  keys.resize(n);
  if (n == 0) return;
  assert(begin < end);
  const auto span = static_cast<std::uint64_t>(end.us - begin.us);
  // Bucket b holds times in [b << shift, (b + 1) << shift) past `begin`:
  // the smallest power-of-two width giving at most n / 8 buckets.
  const std::uint64_t target = std::max<std::uint64_t>(1, n / 8);
  int shift = 0;
  while ((span >> shift) >= target) ++shift;
  const auto bucket_of = [begin, shift](TimePoint t) {
    assert(t >= begin);
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t.us - begin.us) >> shift);
  };
  const std::size_t num_buckets = ((span - 1) >> shift) + 1;
  buckets.assign(num_buckets + 1, 0);
  for (const trace::PacketRecord& p : packets) ++buckets[bucket_of(p.time) + 1];
  for (std::size_t b = 1; b <= num_buckets; ++b) buckets[b] += buckets[b - 1];
  // Scatter in emission order, advancing each bucket's start offset; after
  // this pass buckets[b] is where bucket b ends and b + 1 begins.
  for (std::uint32_t i = 0; i < n; ++i) {
    const TimePoint t = packets[i].time;
    keys[buckets[bucket_of(t)]++] = {t.us, i};
  }
  std::size_t lo = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    sort_bucket(keys, lo, buckets[b]);
    lo = buckets[b];
  }
}

}  // namespace wildenergy::sim
