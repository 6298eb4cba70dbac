// The stride rule every capped pass samples its population with. The
// pinned report, figure, kb and advisor digests depend on these exact
// picks, so the rule is pinned here, in one table.
#include "common/stride_sample.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

namespace cloudlens {
namespace {

TEST(StrideSampleTest, PicksFollowTheStrideRule) {
  struct Case {
    std::size_t n, max, stride, picks;
  };
  const Case cases[] = {
      {0, 300, 1, 0},
      // Under twice the cap the stride stays 1: every item is kept.
      {313, 300, 1, 313},
      {600, 300, 2, 300},
      {899, 300, 2, 450},
      // max == 0 means no cap.
      {5, 0, 1, 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n " + std::to_string(c.n) + ", max " +
                 std::to_string(c.max));
    std::vector<std::size_t> items(c.n);
    std::iota(items.begin(), items.end(), std::size_t{0});
    const std::vector<std::size_t> picks = stride_sample(items, c.max);
    ASSERT_EQ(picks.size(), c.picks);
    for (std::size_t k = 0; k < picks.size(); ++k)
      ASSERT_EQ(picks[k], k * c.stride) << "pick " << k;
  }
}

}  // namespace
}  // namespace cloudlens
