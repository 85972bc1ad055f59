#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "base/random.hh"
#include "base/ring_queue.hh"

namespace firesim
{
namespace
{

TEST(RingQueue, MatchesDequeUnderRandomOperations)
{
    // Pushes, pops and mid-queue inserts, across several growths and
    // wrap-arounds, against std::deque as the model.
    RingQueue<std::string> ring;
    std::deque<std::string> model;
    Random rng(7);
    for (int step = 0; step < 5000; ++step) {
        uint64_t op = rng.below(10);
        if (op < 5) {
            std::string v = std::to_string(step);
            ring.push_back(v);
            model.push_back(v);
        } else if (op < 8) {
            if (!model.empty()) {
                ring.pop_front();
                model.pop_front();
            }
        } else {
            size_t at = rng.below(model.size() + 1);
            std::string v = "i" + std::to_string(step);
            ring.insert(at, v);
            model.insert(model.begin() + at, v);
        }
        ASSERT_EQ(ring.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(ring.front(), model.front());
        }
    }
    size_t i = 0;
    for (const std::string &v : ring)
        EXPECT_EQ(v, model[i++]);
    EXPECT_EQ(i, model.size());
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

TEST(RingQueue, PopReleasesWhatTheSlotOwned)
{
    RingQueue<std::string> ring;
    ring.push_back(std::string(1000, 'x'));
    ring.pop_front();
    // The slot is reset, so a later pass over the ring sees no stale
    // element, and the ring can refill it.
    ring.emplace_back("y");
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), "y");
}

} // namespace
} // namespace firesim
