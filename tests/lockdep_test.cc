// Runtime lockdep (ds/util/lockdep.h) against the manifest in
// ds/util/lock_order.h: the kTest* ranks exist for exactly these tests, and
// this file is in ds_lint's sweep so lock-rank-stale sees them used.

#include "ds/util/lockdep.h"

#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "ds/util/lock_order.h"
#include "ds/util/thread_annotations.h"
#include "gtest/gtest.h"

namespace ds::util {
namespace {

// Every mutex is ranked: there is no way to build one outside the manifest.
static_assert(!std::is_default_constructible_v<util::Mutex>);

/// Sum of every observed acquired-after edge count (0 = empty graph).
uint64_t TotalEdgeCount() {
  uint64_t total = 0;
  for (const LockRankEntry& from : kLockRankTable) {
    for (const LockRankEntry& to : kLockRankTable) {
      total += lockdep::EdgeCount(from.id, to.id);
    }
  }
  return total;
}

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lockdep::Enabled();
    lockdep::SetEnabled(true);
    lockdep::SetAbortOnViolation(true);
    lockdep::ResetForTest();
  }
  void TearDown() override {
    lockdep::SetAbortOnViolation(true);
    lockdep::SetEnabled(was_enabled_);
    lockdep::ResetForTest();
  }
  bool was_enabled_ = false;
};

TEST_F(LockdepTest, RankTableIsStrictlyMonotone) {
  std::set<std::string> names;
  int prev_rank = -1;
  for (size_t i = 0; i < kNumLockRanks; ++i) {
    const LockRankEntry& e = kLockRankTable[i];
    EXPECT_GT(e.rank, prev_rank)
        << "rank of '" << e.name << "' does not increase down the table";
    prev_rank = e.rank;
    EXPECT_EQ(static_cast<int>(e.id), e.rank)
        << "enum value and rank diverged for '" << e.name << "'";
    EXPECT_NE(e.name[0], '\0');
    EXPECT_TRUE(names.insert(e.name).second)
        << "duplicate class name '" << e.name << "'";
    EXPECT_EQ(LockRankInfo(e.id), &e);
    EXPECT_EQ(LockRankIndex(&e), i);
  }
}

TEST_F(LockdepTest, RankedNestingInOrderIsClean) {
  util::Mutex order_outer{util::LockRank::kTestOuter};
  util::Mutex order_inner{util::LockRank::kTestInner};
  util::Mutex order_leaf{util::LockRank::kTestLeaf};
  for (int i = 0; i < 3; ++i) {
    util::MutexLock outer_lock(order_outer);
    util::MutexLock inner_lock(order_inner);
    util::MutexLock leaf_lock(order_leaf);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  EXPECT_GT(lockdep::EdgeCount(LockRank::kTestOuter, LockRank::kTestInner),
            0u);
  EXPECT_GT(lockdep::EdgeCount(LockRank::kTestInner, LockRank::kTestLeaf),
            0u);
}

TEST_F(LockdepTest, AbbaInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  util::Mutex abba_outer{util::LockRank::kTestOuter};
  util::Mutex abba_inner{util::LockRank::kTestInner};
  EXPECT_DEATH(
      {
        util::MutexLock inner_lock(abba_inner);
        util::MutexLock outer_lock(abba_outer);
      },
      "rank inversion");
}

TEST_F(LockdepTest, SameRankNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Same rank = "never held together" (how per-shard stripes are declared).
  util::Mutex stripe_a{util::LockRank::kTestLeaf};
  util::Mutex stripe_b{util::LockRank::kTestLeaf};
  EXPECT_DEATH(
      {
        util::MutexLock a_lock(stripe_a);
        util::MutexLock b_lock(stripe_b);
      },
      "rank inversion");
}

TEST_F(LockdepTest, CountAndContinueRecordsViolation) {
  lockdep::SetAbortOnViolation(false);
  // Static storage, here and in DisarmedCheckerIsInert (the two tests that
  // block on a lock out of rank order): TSan keys mutexes by address, and
  // std::mutex's trivial destructor never tells it a stack mutex died, so
  // stack slots an earlier test locked in rank order would make this
  // inversion a TSan lock-order report.
  static util::Mutex soft_outer{util::LockRank::kTestOuter};
  static util::Mutex soft_inner{util::LockRank::kTestInner};
  {
    util::MutexLock inner_lock(soft_inner);
    util::MutexLock outer_lock(soft_outer);
  }
  EXPECT_GE(lockdep::ViolationCount(), 1u);
}

TEST_F(LockdepTest, TryLockRecordsEdgeButNeverAborts) {
  util::Mutex try_outer{util::LockRank::kTestOuter};
  util::Mutex try_inner{util::LockRank::kTestInner};
  {
    util::MutexLock inner_lock(try_inner);
    // Inverted order, but a successful trylock cannot deadlock: the edge is
    // recorded as evidence, no violation is charged.
    ASSERT_TRUE(try_outer.TryLock());
    try_outer.Unlock();
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  EXPECT_GT(lockdep::EdgeCount(LockRank::kTestInner, LockRank::kTestOuter),
            0u);
}

TEST_F(LockdepTest, OutOfOrderReleaseKeepsHeldStackConsistent) {
  util::Mutex rel_outer{util::LockRank::kTestOuter};
  util::Mutex rel_inner{util::LockRank::kTestInner};
  util::Mutex rel_leaf{util::LockRank::kTestLeaf};
  rel_outer.Lock();
  rel_inner.Lock();
  rel_outer.Unlock();  // non-LIFO: outer released while inner stays held
  rel_leaf.Lock();     // must check against {inner} only
  rel_leaf.Unlock();
  rel_inner.Unlock();
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

TEST_F(LockdepTest, CrossThreadEdgesAccumulateInOneGraph) {
  util::Mutex shared_outer{util::LockRank::kTestOuter};
  util::Mutex shared_inner{util::LockRank::kTestInner};
  std::thread t([&] {
    util::MutexLock outer_lock(shared_outer);
    util::MutexLock inner_lock(shared_inner);
  });
  t.join();
  {
    util::MutexLock outer_lock(shared_outer);
    util::MutexLock inner_lock(shared_inner);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  EXPECT_EQ(lockdep::EdgeCount(LockRank::kTestOuter, LockRank::kTestInner),
            2u);
}

TEST_F(LockdepTest, DisarmedCheckerIsInert) {
  lockdep::SetEnabled(false);
  // Static: see CountAndContinueRecordsViolation.
  static util::Mutex off_outer{util::LockRank::kTestOuter};
  static util::Mutex off_inner{util::LockRank::kTestInner};
  {
    // An inversion, invisible while disarmed.
    util::MutexLock inner_lock(off_inner);
    util::MutexLock outer_lock(off_outer);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  EXPECT_EQ(TotalEdgeCount(), 0u);
}

}  // namespace
}  // namespace ds::util
