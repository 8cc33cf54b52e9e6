// The shared retry schedule (util/backoff.hpp), with the parameters of
// both of its callers, checked without sleeping.
#include "util/backoff.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serve/client.hpp"

namespace tevot::util {
namespace {

TEST(BackoffTest, SweepScheduleDoublesWithoutCap) {
  // dta::runSweep waits backoffMs(backoff_ms, 2, attempt - 1).
  EXPECT_EQ(backoffMs(5.0, 2.0, 0), 5.0);
  EXPECT_EQ(backoffMs(5.0, 2.0, 1), 10.0);
  EXPECT_EQ(backoffMs(5.0, 2.0, 4), 80.0);
  // Retry 40: past the int shift the old code took, still exact.
  EXPECT_EQ(backoffMs(5.0, 2.0, 39), 5.0 * std::ldexp(1.0, 39));
  EXPECT_EQ(backoffMs(5.0, 2.0, 2000),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(backoffMs(0.0, 2.0, 39), 0.0);
}

TEST(BackoffTest, ReconnectScheduleIsCapped) {
  // LineClient::reconnect waits backoffMs(initial, growth, k, cap)
  // before retry k, with the default ReconnectPolicy here.
  const serve::ReconnectPolicy policy;
  const double expected[] = {1, 2, 4, 8, 16, 32, 64, 100, 100};
  for (int k = 0; k < 9; ++k) {
    EXPECT_EQ(backoffMs(policy.initial_backoff_ms, policy.growth, k,
                        policy.max_backoff_ms),
              expected[k])
        << "retry " << k;
  }
  EXPECT_EQ(backoffMs(policy.initial_backoff_ms, policy.growth, 39,
                      policy.max_backoff_ms),
            100.0);
  EXPECT_EQ(backoffMs(0.5, 1.5, 3, 5.0), 0.5 * 1.5 * 1.5 * 1.5);
}

TEST(BackoffTest, NonPositiveWaitsReturnAtOnce) {
  sleepMs(0.0);
  sleepMs(-1.0);
  sleepMs(std::numeric_limits<double>::quiet_NaN());
}

}  // namespace
}  // namespace tevot::util
