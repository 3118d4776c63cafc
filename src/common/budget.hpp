// cprisk/common/budget.hpp
//
// Cooperative resource governance for the solve path. Exhaustive hazard
// identification (paper step 4) must be *bounded and interruptible* at
// production scale: a Budget carries a wall-clock deadline, a decision quota
// for the CDCL search and a step quota for fixpoint-style loops (grounding,
// stability checking), plus an externally triggerable CancelToken. The loops
// charge work units against the budget; once any limit trips, every further
// charge reports the same structured BudgetExceeded, so a deep call stack
// unwinds promptly and the caller can classify the partial result
// (Undetermined{timeout | decision_limit | ...}) instead of parsing a string
// error.
//
// The clock is sampled only every kClockStride charges — cancellation-check
// overhead on the hot search loop stays below the noise floor (see
// bench_perf_solver / EXPERIMENTS.md).
//
// Thread safety: one Budget may be shared by every worker of a parallel
// scenario sweep (docs/performance.md). Charging and polling are thread-safe
// (relaxed atomic counters; the sticky trip is published once through an
// acquire/release flag). The set_* configuration calls are NOT synchronized:
// configure the budget before handing it to concurrent workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace cprisk {

/// Why a budget-governed computation stopped early.
enum class BudgetReason : std::uint8_t {
    Deadline,       ///< wall-clock deadline passed
    DecisionLimit,  ///< solver decision quota exhausted
    StepLimit,      ///< grounder/stability step quota exhausted
    Cancelled,      ///< external cancellation requested
};

std::string_view to_string(BudgetReason reason);

/// Work consumed at the moment a budget tripped (or so far).
struct BudgetStats {
    std::size_t steps = 0;      ///< fixpoint-style work units charged
    std::size_t decisions = 0;  ///< solver decisions charged
    std::chrono::milliseconds elapsed{0};
};

/// Structured description of an exceeded budget.
struct BudgetExceeded {
    BudgetReason reason = BudgetReason::Deadline;
    BudgetStats stats;

    /// e.g. "wall-clock deadline exceeded after 103ms (steps=12040,
    /// decisions=55000)".
    std::string to_string() const;
};

/// Shared cancellation handle: copies observe the same flag, so a controller
/// thread (or signal handler trampoline) can stop a long-running assessment
/// cooperatively.
class CancelToken {
public:
    CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
    bool cancel_requested() const { return flag_->load(std::memory_order_relaxed); }

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// Resource governor shared across one solve path (grounder + solver +
/// stability check), possibly across threads. Default-constructed budgets
/// are unlimited and the charge calls reduce to a relaxed counter increment.
class Budget {
public:
    Budget() : start_(std::chrono::steady_clock::now()) {}

    Budget(const Budget&) = delete;
    Budget& operator=(const Budget&) = delete;

    /// Wall-clock deadline `after` from now.
    void set_deadline_after(std::chrono::milliseconds after) {
        deadline_ = start_ + after;
        limited_ = true;
    }
    /// Total decision quota across every solve charged to this budget
    /// (0 = unlimited).
    void set_max_decisions(std::size_t max_decisions) {
        max_decisions_ = max_decisions;
        limited_ = limited_ || max_decisions != 0;
    }
    /// Total fixpoint-step quota (0 = unlimited).
    void set_max_steps(std::size_t max_steps) {
        max_steps_ = max_steps;
        limited_ = limited_ || max_steps != 0;
    }
    void set_cancel_token(CancelToken token) {
        cancel_ = std::move(token);
        has_cancel_ = true;
        limited_ = true;
    }

    /// True when any limit or cancellation source is configured.
    bool limited() const { return limited_; }

    /// Charges `n` fixpoint work units; returns the (sticky) trip once a
    /// limit is exceeded.
    std::optional<BudgetExceeded> charge_steps(std::size_t n = 1) {
        const std::size_t steps = steps_.fetch_add(n, std::memory_order_relaxed) + n;
        if (!limited_) return std::nullopt;
        if (!has_tripped() && max_steps_ != 0 && steps > max_steps_) {
            trip(BudgetReason::StepLimit);
        }
        return strided_check();
    }

    /// Charges `n` solver decisions.
    std::optional<BudgetExceeded> charge_decisions(std::size_t n = 1) {
        const std::size_t decisions = decisions_.fetch_add(n, std::memory_order_relaxed) + n;
        if (!limited_) return std::nullopt;
        if (!has_tripped() && max_decisions_ != 0 && decisions > max_decisions_) {
            trip(BudgetReason::DecisionLimit);
        }
        return strided_check();
    }

    /// Polls the deadline and cancellation without charging work. Always
    /// samples the clock.
    std::optional<BudgetExceeded> check() {
        if (!limited_) return std::nullopt;
        check_clock_and_cancel();
        return tripped();
    }

    /// The first trip, if any — sticky for the lifetime of the budget.
    /// Returned by value: a reference into the budget would race with a
    /// concurrent first trip.
    std::optional<BudgetExceeded> tripped() const {
        if (!has_tripped()) return std::nullopt;
        std::lock_guard<std::mutex> lock(trip_mutex_);
        return tripped_;
    }

    /// Work consumed so far.
    BudgetStats stats() const {
        BudgetStats s;
        s.steps = steps_.load(std::memory_order_relaxed);
        s.decisions = decisions_.load(std::memory_order_relaxed);
        s.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_);
        return s;
    }

private:
    /// Clock/cancellation are sampled every kClockStride charges only.
    static constexpr std::size_t kClockStride = 64;

    bool has_tripped() const { return tripped_flag_.load(std::memory_order_acquire); }

    std::optional<BudgetExceeded> strided_check() {
        if (!has_tripped()) {
            // The stride counter is contended under a parallel sweep; exact
            // periodicity does not matter, only that the clock is sampled
            // roughly every kClockStride charges per worker.
            if (since_clock_.fetch_add(1, std::memory_order_relaxed) + 1 >= kClockStride) {
                since_clock_.store(0, std::memory_order_relaxed);
                check_clock_and_cancel();
            }
        }
        return tripped();
    }

    void check_clock_and_cancel() {
        if (has_tripped()) return;
        if (has_cancel_ && cancel_.cancel_requested()) {
            trip(BudgetReason::Cancelled);
            return;
        }
        if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
            trip(BudgetReason::Deadline);
        }
    }

    /// First caller wins; later trips (possibly from other workers, possibly
    /// for a different reason) observe the original one.
    void trip(BudgetReason reason) {
        std::lock_guard<std::mutex> lock(trip_mutex_);
        if (tripped_) return;
        BudgetExceeded exceeded;
        exceeded.reason = reason;
        exceeded.stats = stats();
        tripped_ = std::move(exceeded);
        tripped_flag_.store(true, std::memory_order_release);
    }

    std::chrono::steady_clock::time_point start_;
    std::optional<std::chrono::steady_clock::time_point> deadline_;
    std::size_t max_decisions_ = 0;
    std::size_t max_steps_ = 0;
    CancelToken cancel_;
    bool has_cancel_ = false;
    bool limited_ = false;

    std::atomic<std::size_t> steps_{0};
    std::atomic<std::size_t> decisions_{0};
    std::atomic<std::size_t> since_clock_{0};
    std::atomic<bool> tripped_flag_{false};
    mutable std::mutex trip_mutex_;
    std::optional<BudgetExceeded> tripped_;
};

}  // namespace cprisk
