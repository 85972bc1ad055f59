/**
 * @file
 * ThreadPool unit tests: every item runs exactly once, results are
 * visible after the barrier, pools are reusable across batches, and
 * the width-1 pool degenerates to inline execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

namespace firesim
{
namespace
{

TEST(ThreadPool, HardwareWidthIsNeverZero)
{
    EXPECT_GE(ThreadPool::hardwareWidth(), 1u);
}

TEST(ThreadPool, WidthOnePoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.width(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(16);
    pool.parallelFor(ran.size(),
                     [&](size_t i) { ran[i] = std::this_thread::get_id(); });
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EveryItemRunsExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.width(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BarrierPublishesWorkerWrites)
{
    // Plain (non-atomic) writes by workers must be visible to the
    // caller after parallelFor returns: the round barrier is what lets
    // the fabric's commit phase read advance() results without locks.
    ThreadPool pool(8);
    std::vector<uint64_t> out(4096, 0);
    pool.parallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossManyBatches)
{
    ThreadPool pool(3);
    std::vector<uint64_t> acc(64, 0);
    for (int round = 0; round < 200; ++round)
        pool.parallelFor(acc.size(), [&](size_t i) { acc[i] += i; });
    for (size_t i = 0; i < acc.size(); ++i)
        EXPECT_EQ(acc[i], 200 * i);
}

TEST(ThreadPool, EmptyAndSingleItemBatches)
{
    ThreadPool pool(4);
    int ran = 0;
    pool.parallelFor(0, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 0);
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++ran;
    });
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, MoreItemsThanThreadsBalances)
{
    // Dynamic claiming: with wildly uneven item costs, no item is lost
    // and the total matches (the fabric's switch-vs-blade imbalance).
    ThreadPool pool(4);
    std::atomic<uint64_t> total{0};
    pool.parallelFor(257, [&](size_t i) {
        uint64_t burn = (i % 7 == 0) ? 20000 : 10;
        volatile uint64_t x = 0;
        for (uint64_t k = 0; k < burn; ++k)
            x = x + k;
        total += i;
    });
    EXPECT_EQ(total.load(), 257ull * 256ull / 2ull);
}

TEST(ThreadPool, ParallelRunVisitsEveryWorkerExactlyOnce)
{
    for (unsigned width : {1u, 2u, 4u}) {
        ThreadPool pool(width);
        std::vector<std::atomic<uint32_t>> hits(width);
        for (auto &h : hits)
            h.store(0);
        for (int round = 0; round < 50; ++round) {
            pool.parallelRun([&](unsigned id) {
                ASSERT_LT(id, width);
                hits[id].fetch_add(1, std::memory_order_seq_cst);
            });
        }
        for (unsigned w = 0; w < width; ++w)
            EXPECT_EQ(hits[w].load(), 50u) << "worker " << w;
    }
}

TEST(ThreadPool, ParallelRunCallerIsWorkerZero)
{
    ThreadPool pool(3);
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> zero_is_caller{false};
    pool.parallelRun([&](unsigned id) {
        if (id == 0)
            zero_is_caller.store(std::this_thread::get_id() == caller);
    });
    EXPECT_TRUE(zero_is_caller.load());
}

TEST(ThreadPoolDeath, WidthZeroRejected)
{
    EXPECT_EXIT(ThreadPool(0), ::testing::ExitedWithCode(1),
                "width must be at least 1");
}

} // namespace
} // namespace firesim
