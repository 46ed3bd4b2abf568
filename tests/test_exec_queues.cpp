// Unit tests for the event-driven scheduler's ReadyQueue time wheel —
// including regression pins for the below-cursor wake() snap-back (a wheel
// refilled out of time order, or one whose cursor went stale while empty,
// receives wakes behind a cursor nextTime() already scanned forward;
// scanning from the stale cursor would miss or alias them).
#include <gtest/gtest.h>

#include <vector>

#include "exec/ready_queue.hpp"

namespace valpipe::exec {
namespace {

TEST(ReadyQueue, PopsWakesInTimeOrderDeduplicated) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/8);
  q.wake(2, 5);
  q.wake(0, 3);
  q.wake(1, 3);
  q.wake(1, 3);  // push-side duplicate: same cell, same time
  std::vector<std::uint32_t> out;
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.nextTime(), 3);
  EXPECT_EQ(q.pop(out), 3);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(q.pop(out), 5);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(q.empty());
}

// wake() must snap the scan cursor back when an entry lands below it:
// pop() and nextTime() move the cursor forward, and a wheel that is then
// refilled from state (a restore reseeds it cell by cell, not in time
// order) receives wakes behind it.  Without the snap-back the wheel would
// skip the bucket (or alias it a full ring lap later).
TEST(ReadyQueue, WakeBelowScannedCursorIsStillFound) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/8);
  std::vector<std::uint32_t> out;
  // Advance the cursor well past the start by processing a late entry.
  q.wake(0, 9);
  EXPECT_EQ(q.pop(out), 9);  // cursor is now 10
  EXPECT_TRUE(q.empty());
  // A wake behind the cursor.
  q.wake(1, 4);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.nextTime(), 4);  // not 4 + ring-size, and not skipped
  EXPECT_EQ(q.pop(out), 4);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(ReadyQueue, WakeBelowCursorWhileNonEmptyStaysExact) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/16);
  std::vector<std::uint32_t> out;
  q.wake(0, 12);
  EXPECT_EQ(q.nextTime(), 12);  // cursor scanned forward to 12
  q.wake(1, 7);                 // below the scanned cursor, wheel non-empty
  EXPECT_EQ(q.pop(out), 7);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(q.pop(out), 12);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST(ReadyQueue, SameCellReexaminedAtManyTimesAcrossRingLaps) {
  ReadyQueue q(/*cells=*/1, /*horizon=*/4);
  std::vector<std::uint32_t> out;
  // Push/pop the same cell across several laps of the (small) ring.
  std::int64_t t = 0;
  for (int lap = 0; lap < 50; ++lap) {
    q.wake(0, t + 3);
    EXPECT_EQ(q.pop(out), t + 3) << "lap " << lap;
    EXPECT_EQ(out.size(), 1u);
    t += 3;
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace valpipe::exec
