// cprisk/obs/run_context.hpp
//
// RunContext: the one bundle of cross-cutting run state threaded by
// reference through the whole assessment pipeline — resource budget,
// fault-injection registry, worker pool, trace sink, and metrics registry.
// It is the only home of `jobs` and the budget: no options struct carries
// its own copy.
//
// Layers receive a `RunContext*` inside their options struct and read
// everything run-scoped from it:
//
//   RunContext ctx;
//   ctx.jobs = 8;
//   ctx.budget.set_deadline_after(std::chrono::seconds(30));
//   ctx.trace = &my_chrome_sink;     // optional; nullptr = tracing off
//   ctx.metrics = &my_registry;      // optional; nullptr = metrics off
//   report = assessment.run(config, ctx);
//
// A default-constructed RunContext means: unlimited budget, one lane (every
// sweep runs inline, in scenario order), no observability. The context is
// borrowed by every layer and must outlive the run; it is non-copyable
// (the budget's trip state and the lazily-built pool are identity).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cprisk {

namespace epa {
class GroundedBaseCache;  // epa/epa.hpp; held by pointer only, no obs->epa dependency
}  // namespace epa

class RunContext {
public:
    RunContext() = default;
    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    /// Resource governor shared by every solve of the run (owned; configure
    /// limits before handing the context to the pipeline).
    Budget budget;

    /// Trace sink; nullptr (or a disabled sink) turns every Span into a
    /// single-branch no-op. Borrowed.
    obs::TraceSink* trace = nullptr;

    /// Metrics registry; nullptr disables all metric recording. Borrowed.
    obs::MetricsRegistry* metrics = nullptr;

    /// Fault-injection registry for harness code that arms or inspects
    /// sites through the context. Defaults to the process-wide registry the
    /// seams consult. Borrowed, never null.
    fault::FaultInjectionRegistry* faults = &fault::global_registry();

    /// Worker lanes for parallel sweeps (0 = hardware concurrency; 1 runs
    /// every sweep inline on the caller, in scenario order). Never changes
    /// results, reports, or journal bytes (docs/performance.md).
    std::size_t jobs = 1;

    /// Bounded retry with jittered backoff for transient
    /// Undetermined{solver_error} verdicts (common/retry.hpp,
    /// docs/serve.md). Disabled by default; budget trips never retry.
    RetryPolicy retry;

    /// Warm ground-once base cache shared across runs over the SAME model,
    /// requirements, and mitigation map (epa/epa.hpp; the daemon wires one
    /// per served model). nullptr — the default — grounds per analysis as
    /// before. Borrowed.
    epa::GroundedBaseCache* base_cache = nullptr;

    /// The run's shared worker pool, built on first use with
    /// ThreadPool::resolve(jobs) lanes. One batch at a time (the pipeline's
    /// sweeps never nest). Jobs changes after the first call have no effect.
    ThreadPool& pool();

private:
    std::mutex pool_mutex_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cprisk
