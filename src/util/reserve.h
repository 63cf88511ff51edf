// Geometric capacity reservation for containers that receive many small
// batched inserts.
//
// `v.reserve(v.size() + k)` sizes a vector to exactly that total, so the
// next call with any k > 0 reallocates and moves every element again: N
// small batches cost O(N * size). libstdc++'s unordered containers are
// worse: `reserve(size() + k)` rehashes to the smallest bucket count that
// fits, which after insert-driven doubling is a *shrink*, so every call
// rehashes every node. These helpers return when the container already has
// room and otherwise grow to at least twice the current capacity, so a
// sequence of reservations totalling n elements reallocates O(log n) times.
#ifndef GRAPHITTI_UTIL_RESERVE_H_
#define GRAPHITTI_UTIL_RESERVE_H_

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

namespace graphitti {
namespace util {

/// Ensures `v.capacity() >= total`, at least doubling when it must grow.
template <typename T, typename A>
void ReserveGeometric(std::vector<T, A>& v, size_t total) {
  if (total <= v.capacity()) return;
  v.reserve(std::max(total, 2 * v.capacity()));
}

/// Ensures an unordered map holds `total` elements without a rehash,
/// at least doubling its element capacity when it must grow. Never shrinks.
template <typename K, typename V, typename H, typename E, typename A>
void ReserveGeometric(std::unordered_map<K, V, H, E, A>& m, size_t total) {
  const double room = static_cast<double>(m.bucket_count()) * m.max_load_factor();
  if (static_cast<double>(total) <= room) return;
  m.reserve(std::max(total, 2 * m.size()));
}

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_RESERVE_H_
