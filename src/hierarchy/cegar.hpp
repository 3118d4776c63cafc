// cprisk/hierarchy/cegar.hpp
//
// CEGAR-styled hazard refinement (paper step 5): "the shortlist of
// potentially successful attacks may contain spurious solutions due to
// over-abstraction (but the method guarantees that no actual hazardous
// attack is overlooked). This way, a successive iteration after CEGAR-styled
// model refinement and re-analysis ... is needed to eliminate false
// solutions."
//
// Round 1 runs the abstract (topology-focus) analysis over the scenario
// space, producing candidate hazards. Each further round re-evaluates only
// the surviving candidates under a more precise analysis (behavioural
// focus, optionally on a structurally refined model); candidates that stop
// violating are recorded as spurious and eliminated. The soundness property
// — every hazard confirmed at the concrete level was already flagged
// abstractly — is property-tested in tests/hierarchy.
//
// The refinement walks the ladder *per scenario* (scenarios are independent,
// so this yields the same hazard set and per-stage statistics as a
// stage-major sweep) which enables two robustness features:
//  - checkpoint/resume: each finished scenario yields one ScenarioRecord
//    that hooks can journal and replay (core/journal.hpp);
//  - graceful degradation: a scenario whose most precise solve ends
//    Undetermined (budget/deadline/solver error) is retried once on the
//    previous, cheaper stage. The abstract stage over-approximates, so a
//    *complete* abstract Safe soundly eliminates the scenario; anything
//    else records it Undetermined instead of failing the run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.hpp"
#include "epa/epa.hpp"
#include "security/scenario.hpp"

namespace cprisk::hierarchy {

/// One refinement stage: an analysis configuration of increasing precision.
struct CegarStage {
    std::string name;  ///< e.g. "topology", "behavioral", "behavioral+refined"
    const model::SystemModel* model = nullptr;
    epa::AnalysisFocus focus = epa::AnalysisFocus::Topology;
    std::vector<epa::Requirement> requirements;
    int horizon = 4;
};

struct CegarIterationStats {
    std::string stage_name;
    std::size_t candidates_in = 0;   ///< scenarios entering this round
    std::size_t hazards_out = 0;     ///< still violating after this round
    std::size_t spurious_eliminated = 0;
};

/// Where one scenario ended up after walking the stage ladder.
enum class ScenarioOutcome : std::uint8_t {
    Safe,          ///< complete Safe at the most abstract stage
    Spurious,      ///< flagged abstractly, eliminated by a later stage
    Confirmed,     ///< hazardous at the most precise stage
    Undetermined,  ///< resources ran out before a sound conclusion
};

std::string_view to_string(ScenarioOutcome outcome);
std::optional<ScenarioOutcome> parse_scenario_outcome(std::string_view text);

/// Outcome of one scenario at one stage of the ladder.
struct StageOutcome {
    std::string stage;  ///< CegarStage::name
    epa::VerdictStatus status = epa::VerdictStatus::Safe;
    std::optional<epa::UndeterminedReason> undetermined_reason;
    /// True for the fallback re-evaluation on the previous, cheaper stage
    /// after an undetermined final-stage solve (the degradation ladder).
    bool degraded = false;
};

/// Complete, journal-able record of one scenario's walk down the ladder.
/// Replaying records (see CegarHooks::lookup) reconstructs the exact
/// CegarResult of an uninterrupted run.
struct ScenarioRecord {
    std::string scenario_id;
    ScenarioOutcome outcome = ScenarioOutcome::Safe;
    std::vector<StageOutcome> stages;  ///< in evaluation order
    /// The verdict backing the outcome (final-stage verdict for Confirmed;
    /// the eliminating verdict for Safe/Spurious; the last undetermined
    /// verdict otherwise).
    epa::ScenarioVerdict verdict;
    /// Expected-risk score in micro-units (risk/prior.hpp) under the run's
    /// priority policy; -1 = not scored (PriorityPolicy::Enumeration).
    /// Stamped by the assessment pipeline when journaling, so an anytime
    /// interruption's journal shows the risk mass already covered.
    long long expected_risk_micros = -1;
};

/// Checkpoint/resume seams. Both hooks are optional.
struct CegarHooks {
    /// Consulted before a scenario is evaluated; returning a record skips
    /// evaluation and replays it (journal resume).
    std::function<std::optional<ScenarioRecord>(const std::string& scenario_id)> lookup;
    /// Called once per scenario with its final record (journal append). A
    /// failure aborts the run.
    std::function<Result<void>(const ScenarioRecord&)> completed;
};

struct CegarOptions {
    /// Per-solve decision cap applied to every stage (0 = solver default).
    std::size_t max_decisions = 0;
    /// Forwarded to every stage's EpaOptions::static_prefilter
    /// (docs/static-analysis.md).
    bool static_prefilter = true;
    /// Unified run state: budget, worker pool, trace sink, metrics registry
    /// (obs/run_context.hpp). Borrowed; must outlive the run; null runs the
    /// sweep inline. Worker lanes come from ctx->jobs (0 = hardware
    /// concurrency); records, statistics, and the order of `completed` hook
    /// invocations are independent of the value: the ordered sweep
    /// (common/ordered_sweep.hpp) drains finished walks to the hook strictly
    /// in scenario order (docs/performance.md).
    RunContext* ctx = nullptr;
    CegarHooks hooks;

    /// Resolved views over the run context (see epa::EpaOptions for the
    /// idiom).
    Budget* effective_budget() const { return ctx != nullptr ? &ctx->budget : nullptr; }
    obs::TraceSink* trace_sink() const { return ctx != nullptr ? ctx->trace : nullptr; }
    obs::MetricsRegistry* metrics_sink() const { return ctx != nullptr ? ctx->metrics : nullptr; }
};

struct CegarResult {
    /// Verdicts of scenarios still hazardous after the last stage.
    std::vector<epa::ScenarioVerdict> confirmed;
    /// Scenarios whose evaluation ran out of resources, with the reason in
    /// the verdict (sorted by scenario id). A non-empty list means the
    /// hazard identification was NOT exhaustive.
    std::vector<epa::ScenarioVerdict> undetermined;
    /// Scenario ids eliminated as spurious, per stage.
    std::vector<std::vector<std::string>> eliminated_per_stage;
    std::vector<CegarIterationStats> iterations;
    /// One record per scenario, in scenario-space order.
    std::vector<ScenarioRecord> records;

    std::size_t total_spurious() const;
    bool complete() const { return undetermined.empty(); }
};

/// Runs the staged refinement over `space`. Stages must be ordered from the
/// most abstract to the most precise; each scenario walks the ladder until
/// a stage soundly eliminates it (complete Safe) or the last stage confirms
/// it.
Result<CegarResult> run_cegar(const std::vector<CegarStage>& stages,
                              const security::ScenarioSpace& space,
                              const epa::MitigationMap& mitigations,
                              const std::vector<std::string>& active_mitigations,
                              const CegarOptions& options = {});

}  // namespace cprisk::hierarchy
