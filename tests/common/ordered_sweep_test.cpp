// Ordered sweep contract (common/ordered_sweep.hpp), checked against a plain
// `for` loop over the same indices: accept order is index order, replays are
// never evaluated, the lowest-index failure wins, and no new work starts
// once a failure is known. Every property runs at 1, 2, 4 and 8 lanes with
// seeded per-task sleeps so completion order differs from index order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/ordered_sweep.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace cprisk {
namespace {

constexpr std::size_t kJobs[] = {1, 2, 4, 8};

/// What `accept` saw for one index.
struct Accepted {
    std::size_t index = 0;
    std::string value;
    bool replayed = false;

    bool operator==(const Accepted&) const = default;
};

void PrintTo(const Accepted& a, std::ostream* os) {
    *os << a.index << ":" << a.value << (a.replayed ? " (replayed)" : "");
}

/// Per-index sleeps in microseconds, drawn from a fixed seed.
std::vector<int> seeded_sleeps(std::size_t count, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> micros(0, 300);
    std::vector<int> sleeps(count);
    for (int& sleep : sleeps) sleep = micros(rng);
    return sleeps;
}

void sleep_us(int micros) { std::this_thread::sleep_for(std::chrono::microseconds(micros)); }

std::string value_of(std::size_t index) { return numbered("v", static_cast<long long>(index)); }

/// The sweep's observable outcome.
struct Outcome {
    std::vector<Accepted> accepted;
    std::optional<std::string> error;
};

/// The oracle: the same replay/evaluate/accept callbacks in a plain loop
/// that stops at the first failure.
template <typename Replay, typename Evaluate>
Outcome plain_loop(std::size_t count, Replay replay, Evaluate evaluate) {
    Outcome out;
    for (std::size_t i = 0; i < count; ++i) {
        if (std::optional<std::string> replayed = replay(i)) {
            out.accepted.push_back({i, *replayed, true});
            continue;
        }
        Result<std::string> value = evaluate(i);
        if (!value.ok()) {
            out.error = value.error();
            break;
        }
        out.accepted.push_back({i, value.value(), false});
    }
    return out;
}

template <typename Replay, typename Evaluate>
Outcome swept(ThreadPool* pool, std::size_t count, Replay replay, Evaluate evaluate) {
    Outcome out;
    auto result = ordered_sweep<std::string>(
        pool, count, replay, evaluate,
        [&](std::size_t index, std::string&& value, bool replayed) {
            out.accepted.push_back({index, std::move(value), replayed});
            return Result<void>();
        });
    if (!result.ok()) out.error = result.error();
    return out;
}

const auto kNoReplay = [](std::size_t) { return std::optional<std::string>(); };

TEST(OrderedSweepTest, AcceptOrderIsIndexOrder) {
    constexpr std::size_t kCount = 40;
    const std::vector<int> sleeps = seeded_sleeps(kCount, 7);
    const auto evaluate = [&](std::size_t i) -> Result<std::string> {
        sleep_us(sleeps[i]);
        return value_of(i);
    };
    const Outcome expected = plain_loop(kCount, kNoReplay, evaluate);
    ASSERT_EQ(expected.accepted.size(), kCount);
    for (const std::size_t jobs : kJobs) {
        ThreadPool pool(jobs);
        const Outcome got = swept(&pool, kCount, kNoReplay, evaluate);
        EXPECT_FALSE(got.error.has_value()) << "jobs=" << jobs;
        EXPECT_EQ(got.accepted, expected.accepted) << "jobs=" << jobs;
    }
    // No pool: the sweep runs inline on the caller.
    const Outcome inline_run = swept(nullptr, kCount, kNoReplay, evaluate);
    EXPECT_EQ(inline_run.accepted, expected.accepted);
}

TEST(OrderedSweepTest, ReplayedIndicesAreNeverEvaluated) {
    constexpr std::size_t kCount = 30;
    const std::vector<int> sleeps = seeded_sleeps(kCount, 11);
    const auto replay = [](std::size_t i) -> std::optional<std::string> {
        if (i % 3 == 0) return "journal-" + value_of(i);
        return std::nullopt;
    };
    const Outcome expected = plain_loop(kCount, replay, [](std::size_t i) {
        return Result<std::string>(value_of(i));
    });
    for (const std::size_t jobs : kJobs) {
        ThreadPool pool(jobs);
        std::vector<std::atomic<int>> evaluations(kCount);
        const Outcome got = swept(&pool, kCount, replay, [&](std::size_t i) {
            evaluations[i].fetch_add(1);
            sleep_us(sleeps[i]);
            return Result<std::string>(value_of(i));
        });
        EXPECT_EQ(got.accepted, expected.accepted) << "jobs=" << jobs;
        for (std::size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(evaluations[i].load(), i % 3 == 0 ? 0 : 1) << "jobs=" << jobs << " i=" << i;
        }
    }
}

TEST(OrderedSweepTest, AllReplaySweepStartsNoBatch) {
    constexpr std::size_t kCount = 12;
    const auto replay = [](std::size_t i) { return std::optional<std::string>(value_of(i)); };
    std::atomic<int> evaluations{0};
    const auto evaluate = [&](std::size_t i) {
        evaluations.fetch_add(1);
        return Result<std::string>(value_of(i));
    };
    const Outcome expected = plain_loop(kCount, replay, evaluate);
    // run_batch on a service-mode pool throws, so any batch would surface.
    ThreadPool service(2, ThreadPool::PoolMode::Service);
    const Outcome got = swept(&service, kCount, replay, evaluate);
    EXPECT_EQ(got.accepted, expected.accepted);
    EXPECT_FALSE(got.error.has_value());
    EXPECT_EQ(evaluations.load(), 0);
}

TEST(OrderedSweepTest, LowestIndexFailureWinsOverAnEarlierWallClockFailure) {
    constexpr std::size_t kCount = 32;
    constexpr std::size_t kFirst = 9;
    constexpr std::size_t kLater = 25;
    const std::vector<int> sleeps = seeded_sleeps(kCount, 13);
    const auto evaluate = [&](std::size_t i) -> Result<std::string> {
        if (i == kLater) return Result<std::string>::failure(value_of(i));  // fails at once
        if (i == kFirst) {
            sleep_us(20000);  // fails last in wall time
            return Result<std::string>::failure(value_of(i));
        }
        sleep_us(sleeps[i]);
        return value_of(i);
    };
    const Outcome expected = plain_loop(kCount, kNoReplay, evaluate);
    ASSERT_EQ(expected.accepted.size(), kFirst);
    ASSERT_EQ(expected.error, value_of(kFirst));
    for (const std::size_t jobs : kJobs) {
        ThreadPool pool(jobs);
        const Outcome got = swept(&pool, kCount, kNoReplay, evaluate);
        EXPECT_EQ(got.accepted, expected.accepted) << "jobs=" << jobs;
        EXPECT_EQ(got.error, expected.error) << "jobs=" << jobs;
    }
}

TEST(OrderedSweepTest, AcceptFailureStopsTheSweep) {
    constexpr std::size_t kCount = 20;
    constexpr std::size_t kRefused = 6;
    const std::vector<int> sleeps = seeded_sleeps(kCount, 17);
    for (const std::size_t jobs : kJobs) {
        ThreadPool pool(jobs);
        std::atomic<std::size_t> evaluations{0};
        std::vector<std::size_t> accepted;
        auto result = ordered_sweep<std::string>(
            &pool, kCount, kNoReplay,
            [&](std::size_t i) {
                evaluations.fetch_add(1);
                sleep_us(sleeps[i]);
                return Result<std::string>(value_of(i));
            },
            [&](std::size_t index, std::string&&, bool) {
                if (index == kRefused) return Result<void>::failure("refused");
                accepted.push_back(index);
                return Result<void>();
            });
        ASSERT_FALSE(result.ok()) << "jobs=" << jobs;
        EXPECT_EQ(result.error(), "refused");
        EXPECT_EQ(accepted, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5})) << "jobs=" << jobs;
        if (jobs == 1) {
            EXPECT_EQ(evaluations.load(), kRefused + 1);
        }
    }
}

TEST(OrderedSweepTest, OneLaneStopsRightAfterTheFailingEvaluation) {
    constexpr std::size_t kCount = 20;
    constexpr std::size_t kFailing = 5;
    std::atomic<std::size_t> evaluations{0};
    const auto evaluate = [&](std::size_t i) -> Result<std::string> {
        evaluations.fetch_add(1);
        if (i == kFailing) return Result<std::string>::failure("boom");
        return value_of(i);
    };
    const Outcome expected = plain_loop(kCount, kNoReplay, evaluate);
    evaluations.store(0);

    ThreadPool pool(1);
    const Outcome got = swept(&pool, kCount, kNoReplay, evaluate);
    EXPECT_EQ(got.accepted, expected.accepted);
    EXPECT_EQ(got.error, expected.error);
    EXPECT_EQ(evaluations.load(), kFailing + 1);

    evaluations.store(0);
    const Outcome inline_run = swept(nullptr, kCount, kNoReplay, evaluate);
    EXPECT_EQ(inline_run.accepted, expected.accepted);
    EXPECT_EQ(evaluations.load(), kFailing + 1);
}

TEST(OrderedSweepTest, ParallelSweepStartsNoNewWorkAfterAFailure) {
    constexpr std::size_t kCount = 64;
    ThreadPool pool(4);
    std::atomic<std::size_t> evaluations{0};
    const Outcome got = swept(&pool, kCount, kNoReplay, [&](std::size_t i) {
        evaluations.fetch_add(1);
        if (i == 0) return Result<std::string>::failure("first");
        sleep_us(2000);
        return Result<std::string>(value_of(i));
    });
    EXPECT_TRUE(got.accepted.empty());
    EXPECT_EQ(got.error, "first");
    EXPECT_LT(evaluations.load(), kCount);
}

}  // namespace
}  // namespace cprisk
