#include "util/stopwatch.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace anyblock {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  const double first = watch.seconds();
  EXPECT_GE(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double second = watch.seconds();
  EXPECT_GT(second, first);
  watch.reset();
  EXPECT_LT(watch.seconds(), second);
}

}  // namespace
}  // namespace anyblock
