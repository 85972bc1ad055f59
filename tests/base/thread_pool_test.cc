/**
 * @file
 * ThreadPool unit tests: every worker id runs exactly once per
 * dispatch, results are visible after the barrier, pools are reusable
 * across dispatches, and the width-1 pool degenerates to inline
 * execution.
 */

#include <gtest/gtest.h>

#include <atomic>
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
    std::vector<std::thread::id> ran;
    pool.parallelRun([&](unsigned id) {
        EXPECT_EQ(id, 0u);
        ran.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ran.size(), 1u);
    EXPECT_EQ(ran[0], caller);
}

TEST(ThreadPool, BarrierPublishesWorkerWrites)
{
    // Plain (non-atomic) writes by workers must be visible to the
    // caller after parallelRun returns: the round barrier is what lets
    // the fabric's commit phase read advance() results without locks.
    constexpr unsigned kWidth = 8;
    ThreadPool pool(kWidth);
    std::vector<uint64_t> out(4096, 0);
    pool.parallelRun([&](unsigned id) {
        for (size_t i = id; i < out.size(); i += kWidth)
            out[i] = i * i;
    });
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossManyBatches)
{
    constexpr unsigned kWidth = 3;
    ThreadPool pool(kWidth);
    std::vector<uint64_t> acc(64, 0);
    for (int round = 0; round < 200; ++round) {
        pool.parallelRun([&](unsigned id) {
            for (size_t i = id; i < acc.size(); i += kWidth)
                acc[i] += i;
        });
    }
    for (size_t i = 0; i < acc.size(); ++i)
        EXPECT_EQ(acc[i], 200 * i);
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
