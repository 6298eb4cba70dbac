// Deterministic stride subsampling: the one rule every capped pass (the
// classifier, utilization bands, node correlations, the advisor's
// evaluations, kb extraction) uses to cut a population down to a budget.
// The pinned report, figure, kb and advisor digests depend on it.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace cloudlens {

/// `items` reduced to its picks, in order. With stride = n / max (rounded
/// down) when max > 0 and n > max, and 1 otherwise, the picks are the
/// items at 0, stride, 2·stride, … below n. max == 0 keeps every item, and
/// so does any pool under twice the cap (its stride is 1).
template <typename T>
std::vector<T> stride_sample(std::vector<T> items, std::size_t max) {
  const std::size_t n = items.size();
  const std::size_t stride = max > 0 && n > max ? n / max : 1;
  if (stride == 1) return items;
  const std::size_t picks = (n + stride - 1) / stride;
  for (std::size_t k = 1; k < picks; ++k)
    items[k] = std::move(items[k * stride]);
  items.erase(std::next(items.begin(), static_cast<std::ptrdiff_t>(picks)),
              items.end());
  return items;
}

}  // namespace cloudlens
