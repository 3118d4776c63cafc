// cprisk/common/ordered_sweep.hpp
//
// The one scenario sweep driver (paper step 4, repeated by the CEGAR walk
// and each exhaustive-frontier layer; docs/performance.md):
//
//  1. `replay(i)` runs for every index first, in one sequential pre-pass:
//     the journal lookup mutates the caller's resume counters.
//  2. The other indices run `evaluate(i)` on the pool. A 1-lane pool, or a
//     null one, runs them inline and in order: `--jobs 1` is this code path.
//  3. `accept(i, value, replayed)` sees the results strictly in index order,
//     under one mutex, so journals written from it are byte-identical at
//     any job count.
//  4. The first failure in index order (from `evaluate` or `accept`) is
//     returned and nothing after it is accepted. Once index k is known to
//     fail, tasks above k that have not started are skipped.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/thread_pool.hpp"

namespace cprisk {

/// `replay(i)` returns std::optional<T>, `evaluate(i)` Result<T>, and
/// `accept(i, T&&, bool replayed)` Result<void>.
template <typename T, typename Replay, typename Evaluate, typename Accept>
Result<void> ordered_sweep(ThreadPool* pool, std::size_t count, Replay&& replay,
                           Evaluate&& evaluate, Accept&& accept) {
    struct Slot {
        bool replayed = false;
        std::optional<Result<T>> result;
    };
    std::vector<Slot> slots(count);
    std::vector<std::size_t> pending;
    pending.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (std::optional<T> replayed = replay(i)) {
            slots[i].replayed = true;
            slots[i].result.emplace(std::move(*replayed));
        } else {
            pending.push_back(i);
        }
    }

    // drain_mutex guards the slots, the drain cursor, first_error, and the
    // writes to stop_at: the lowest index known to fail (count = none). It
    // only decreases and only tasks above it are skipped, so every index
    // below the first failure in index order is still evaluated.
    std::mutex drain_mutex;
    std::size_t next_to_drain = 0;
    std::optional<std::string> first_error;
    std::atomic<std::size_t> stop_at{count};
    const auto drain_ready_prefix_locked = [&] {
        while (!first_error && next_to_drain < count && slots[next_to_drain].result) {
            Slot& slot = slots[next_to_drain];
            Result<void> accepted =
                slot.result->ok()
                    ? accept(next_to_drain, std::move(*slot.result).value(), slot.replayed)
                    : Result<void>::failure(slot.result->error());
            if (!accepted.ok()) {
                first_error = accepted.error();
                stop_at.store(next_to_drain);
                return;
            }
            ++next_to_drain;
        }
    };

    const auto task = [&](std::size_t k) {
        const std::size_t index = pending[k];
        if (index > stop_at.load()) return;
        Result<T> result = evaluate(index);
        std::lock_guard<std::mutex> lock(drain_mutex);
        if (!result.ok() && index < stop_at.load()) stop_at.store(index);
        slots[index].result.emplace(std::move(result));
        drain_ready_prefix_locked();
    };
    if (pool == nullptr) {
        for (std::size_t k = 0; k < pending.size(); ++k) task(k);
    } else if (!pending.empty()) {  // an all-replay sweep starts no batch
        pool->run_batch(pending.size(), task);
    }

    std::lock_guard<std::mutex> lock(drain_mutex);
    drain_ready_prefix_locked();
    if (first_error) return Result<void>::failure(*first_error);
    return {};
}

}  // namespace cprisk
