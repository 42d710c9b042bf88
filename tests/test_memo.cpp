// Unit tests for Memo, the compute-once cache behind bound plans, latency
// models, compiled filters, page classifications and planner statistics:
// single-flight under racing threads, retry after a throwing computation,
// overflow, filtered copies that share by pointer, and exact hit/miss
// accounting. Run under ThreadSanitizer and ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/memo.hpp"

namespace bbpim {
namespace {

TEST(Memo, RacingThreadsComputeOnce) {
  constexpr std::size_t kThreads = 8;
  Memo<int, std::string> memo;
  std::atomic<int> computed{0};
  std::atomic<bool> go{false};
  std::vector<Memo<int, std::string>::Lookup> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      got[t] = memo.get_or_compute(7, [&] {
        computed.fetch_add(1);
        // Hold the claim long enough for every other thread to arrive.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::string("seven");
      });
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computed.load(), 1);
  std::size_t hits = 0;
  for (const auto& lookup : got) {
    ASSERT_NE(lookup.value, nullptr);
    EXPECT_EQ(lookup.value.get(), got[0].value.get());
    EXPECT_EQ(*lookup.value, "seven");
    hits += lookup.hit ? 1 : 0;
  }
  EXPECT_EQ(hits, kThreads - 1);
  EXPECT_EQ(memo.miss_count(), 1u);
  EXPECT_EQ(memo.hit_count(), kThreads - 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, ThrowingComputeLetsAWaiterRecompute) {
  Memo<int, int> memo;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> computed{0};

  auto failing = std::async(std::launch::async, [&] {
    return memo.get_or_compute(1, [&]() -> int {
      computed.fetch_add(1);
      entered.set_value();
      released.wait();
      throw std::runtime_error("compute failed");
    });
  });
  entered.get_future().wait();  // the key is claimed from here on
  auto waiter = std::async(std::launch::async, [&] {
    return memo.get_or_compute(1, [&] {
      computed.fetch_add(1);
      return 42;
    });
  });
  // Give the waiter time to block on the claim (if it is slower, it simply
  // finds the key unclaimed; either way it must compute).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();

  EXPECT_THROW(failing.get(), std::runtime_error);
  const auto lookup = waiter.get();
  ASSERT_NE(lookup.value, nullptr);
  EXPECT_EQ(*lookup.value, 42);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(computed.load(), 2);
  EXPECT_EQ(memo.miss_count(), 2u);
  EXPECT_EQ(memo.hit_count(), 0u);
  EXPECT_EQ(*memo.get_or_compute(1, [] { return 0; }).value, 42);
}

TEST(Memo, OverflowClearsTheMemo) {
  Memo<int, int> memo(2);
  memo.get_or_compute(1, [] { return 10; });
  memo.get_or_compute(2, [] { return 20; });
  EXPECT_EQ(memo.size(), 2u);

  const auto third = memo.get_or_compute(3, [] { return 30; });
  EXPECT_FALSE(third.hit);
  EXPECT_EQ(memo.size(), 1u);  // cleared, then the new entry published
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_EQ(memo.find(2), nullptr);
  ASSERT_NE(memo.find(3), nullptr);
  EXPECT_EQ(*memo.find(3), 30);
  // A value handed out before the clear stays alive with its holders.
  EXPECT_EQ(*third.value, 30);

  EXPECT_TRUE(memo.put(4, 40));  // put obeys the same capacity
  EXPECT_TRUE(memo.put(5, 50));
  EXPECT_EQ(memo.size(), 1u);

  Memo<int, int> unbounded;
  for (int k = 0; k < 1000; ++k) unbounded.get_or_compute(k, [k] { return k; });
  EXPECT_EQ(unbounded.size(), 1000u);
}

TEST(Memo, FilteredCopySharesPointers) {
  Memo<int, std::vector<int>> src(8);
  for (int k = 1; k <= 4; ++k) {
    src.get_or_compute(k, [k] { return std::vector<int>(100, k); });
  }
  src.get_or_compute(1, [] { return std::vector<int>(); });  // one hit

  const Memo<int, std::vector<int>> copy(src, [](int k) { return k != 2; });
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.find(2), nullptr);
  for (const int k : {1, 3, 4}) {
    ASSERT_NE(copy.find(k), nullptr);
    EXPECT_EQ(copy.find(k).get(), src.find(k).get()) << "key " << k;
  }
  EXPECT_EQ(copy.hit_count(), 0u);
  EXPECT_EQ(copy.miss_count(), 0u);
  // The source is untouched, and the dropped key recomputes in the copy.
  EXPECT_EQ(src.size(), 4u);
  EXPECT_EQ(src.hit_count(), 1u);
  const auto again = copy.get_or_compute(2, [] { return std::vector<int>{9}; });
  EXPECT_FALSE(again.hit);
  EXPECT_NE(again.value.get(), src.find(2).get());
  EXPECT_EQ(src.find(2)->front(), 2);
}

TEST(Memo, HitFlagAndCountersAreExact) {
  Memo<std::string, int> memo;
  int runs = 0;
  const auto compute = [&] { return ++runs; };

  EXPECT_FALSE(memo.get_or_compute(std::string_view("a"), compute).hit);
  EXPECT_TRUE(memo.get_or_compute(std::string_view("a"), compute).hit);
  EXPECT_TRUE(memo.get_or_compute(std::string("a"), compute).hit);
  EXPECT_FALSE(memo.get_or_compute(std::string_view("b"), compute).hit);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(memo.hit_count(), 2u);
  EXPECT_EQ(memo.miss_count(), 2u);

  // find, put and count_if leave the counters alone.
  EXPECT_NE(memo.find(std::string_view("a")), nullptr);
  EXPECT_EQ(memo.find(std::string_view("z")), nullptr);
  EXPECT_FALSE(memo.put("a", 99));  // present: the resident value stays
  EXPECT_EQ(*memo.find(std::string_view("a")), 1);
  EXPECT_TRUE(memo.put("c", 3));
  EXPECT_TRUE(memo.get_or_compute(std::string_view("c"), compute).hit);
  EXPECT_EQ(memo.count_if([](const std::string& k) { return k != "b"; }), 2u);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(memo.hit_count(), 3u);
  EXPECT_EQ(memo.miss_count(), 2u);
}

}  // namespace
}  // namespace bbpim
