#include "common/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ntc {
namespace {

TEST(ExecutorTest, RunsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    Executor executor(threads);
    EXPECT_EQ(executor.worker_count(), threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    executor.parallel_for(kN, [&](std::size_t i, unsigned worker) {
      EXPECT_LT(worker, threads);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
  }
}

TEST(ExecutorTest, HandlesEdgeSizes) {
  Executor executor(4);
  executor.parallel_for(0, [&](std::size_t, unsigned) { FAIL(); });

  // Fewer indices than workers: some deques start empty.
  std::atomic<int> count{0};
  executor.parallel_for(2, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 2);

  std::atomic<int> one{0};
  executor.parallel_for(1, [&](std::size_t i, unsigned) {
    EXPECT_EQ(i, 0u);
    ++one;
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ExecutorTest, ReusableAcrossManyJobs) {
  Executor executor(4);
  constexpr std::size_t kN = 257;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(kN, 0);
    executor.parallel_for(kN, [&](std::size_t i, unsigned) {
      out[i] = static_cast<std::uint64_t>(i) * i;
    });
    std::uint64_t sum = std::accumulate(out.begin(), out.end(),
                                        std::uint64_t{0});
    // sum of i^2 for i in [0, kN)
    const std::uint64_t n = kN - 1;
    EXPECT_EQ(sum, n * (n + 1) * (2 * n + 1) / 6) << "round " << round;
  }
}

TEST(ExecutorTest, ResultsIndependentOfWorkerCount) {
  // Writing by index makes the output structurally deterministic: the
  // same values land in the same slots whatever the thread count.
  constexpr std::size_t kN = 512;
  auto run = [&](unsigned threads) {
    Executor executor(threads);
    std::vector<std::uint64_t> out(kN);
    executor.parallel_for(kN, [&](std::size_t i, unsigned) {
      std::uint64_t x = i + 0x9e3779b97f4a7c15ull;
      x ^= x >> 30;
      out[i] = x * 0xbf58476d1ce4e5b9ull;
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(7), serial);
}

TEST(ExecutorTest, ThrowingJobPropagatesAtJoin) {
  // A trial that throws must not terminate() (worker thread) or
  // deadlock (lost completion): the first exception is rethrown on the
  // caller's thread after every index has run.
  for (unsigned threads : {1u, 4u}) {
    Executor executor(threads);
    constexpr std::size_t kN = 200;
    std::vector<std::atomic<int>> hits(kN);
    EXPECT_THROW(
        executor.parallel_for(kN,
                              [&](std::size_t i, unsigned) {
                                hits[i].fetch_add(1,
                                                  std::memory_order_relaxed);
                                if (i == 97)
                                  throw std::runtime_error("trial 97 failed");
                              }),
        std::runtime_error)
        << "threads " << threads;
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(hits[i].load(), 1)
          << "index " << i << " must still run exactly once @" << threads;
  }
}

TEST(ExecutorTest, ExceptionMessageAndReusabilitySurvive) {
  Executor executor(3);
  try {
    executor.parallel_for(8, [&](std::size_t i, unsigned) {
      if (i == 5) throw std::runtime_error("shard 5 exploded");
    });
    FAIL() << "expected the job's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 5 exploded");
  }
  // The executor must be fully usable after a throwing batch.
  std::atomic<int> count{0};
  executor.parallel_for(100, [&](std::size_t, unsigned) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecutorTest, UnbalancedWorkGetsStolen) {
  // Front-loaded cost: worker 0 owns the expensive prefix, the rest is
  // nearly free.  All indices must still complete (stealing or not).
  Executor executor(4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  executor.parallel_for(kN, [&](std::size_t i, unsigned) {
    if (i < 4) {
      volatile std::uint64_t sink = 0;
      for (int k = 0; k < 2'000'000; ++k)
        sink = sink + static_cast<std::uint64_t>(k);
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace ntc
