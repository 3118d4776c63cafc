// cprisk/core/assessment.hpp
//
// The top-level façade running the paper's seven-step pipeline (Fig. 1):
//
//   1. system model          — supplied merged SystemModel;
//   2. candidate mutations   — ScenarioSpace from fault modes + attack paths;
//   3. reasoning             — model + requirements compiled to ASP;
//   4. hazard identification — exhaustive evaluation of every scenario;
//   5. model refinement      — CEGAR: topology-level candidates re-checked
//                              behaviourally, spurious solutions eliminated;
//   6. quantitative risk     — O-RA risk per hazard (LM x LEF -> Table I)
//                              plus IEC 61508 classification;
//   7. mitigation strategy   — cost-benefit optimization and multi-phase
//                              planning under budget constraints.
#pragma once

#include <optional>

#include "common/budget.hpp"
#include "common/table.hpp"
#include "hierarchy/evaluation_matrix.hpp"
#include "mitigation/optimizer.hpp"
#include "obs/run_context.hpp"
#include "risk/iec61508.hpp"
#include "risk/ora.hpp"
#include "risk/prior.hpp"

namespace cprisk::core {

/// RunContext lives in the base `cprisk` namespace (obs/run_context.hpp) so
/// the lower pipeline layers can use it without depending on core; this
/// alias makes the documented `core::RunContext` spelling work too.
using ::cprisk::RunContext;

/// Step-6 output for one confirmed hazard.
struct ScenarioRisk {
    std::string scenario_id;
    qual::Level loss_magnitude = qual::Level::VeryLow;       ///< from impact severity
    qual::Level loss_event_frequency = qual::Level::VeryLow; ///< from scenario likelihood
    qual::Level risk = qual::Level::VeryLow;                 ///< O-RA Table I
    risk::RiskClass iec_class = risk::RiskClass::IV;
    std::vector<std::string> violated_requirements;
    /// Half-width (in qualitative levels) of the likelihood band the
    /// sensitivity analysis sweeps: derived from the widest Beta-prior
    /// standard deviation among the scenario's mutations when the bundle
    /// carries explicit `prior=` parameters, 1 (the pre-prior +/-1 sweep)
    /// otherwise. See risk::ScenarioPriority::likelihood_band_radius.
    int likelihood_band_radius = 1;
};

struct AssessmentConfig {
    int horizon = 6;
    std::size_t max_simultaneous_faults = 2;
    bool include_attack_scenarios = true;
    /// Run the two-stage CEGAR (topology then behavioural); false runs the
    /// behavioural analysis directly on every scenario.
    bool use_cegar = true;
    std::optional<long long> budget;            ///< step-7 budget constraint
    long long phase_budget = 0;                 ///< >0 enables multi-phase planning
    long long loss_scale = 10;                  ///< severity -> cost conversion
    std::vector<std::string> active_mitigations;  ///< already-deployed controls

    // Resource governance (see docs/robustness.md). Exhausted budgets do
    // not fail the run: affected scenarios are reported Undetermined.
    // deadline_ms and cancel are applied to the RunContext's budget at the
    // start of run(); they may instead be configured directly on ctx.budget
    // and left zero here. Worker lanes are RunContext::jobs, not a config
    // field: they change no output byte (docs/performance.md).
    long long deadline_ms = 0;       ///< wall-clock deadline for steps 3-5 (0 = none)
    std::size_t max_decisions = 0;   ///< per-solve decision cap (0 = solver default)
    /// Static ternary prefilter over the EPA ground-once cache
    /// (docs/static-analysis.md). Never changes verdicts — only whether the
    /// CDCL solver runs for statically decidable scenarios — so it is
    /// excluded from the journal's config echo.
    bool static_prefilter = true;
    std::optional<CancelToken> cancel;  ///< external cancellation
    /// Bounded retry for transient Undetermined{solver_error} verdicts
    /// (docs/serve.md): applied to ctx.retry.max_retries at the start of
    /// run(). 0 (the default) disables retry and preserves byte-identity
    /// with earlier releases. A robustness knob that never changes
    /// successful verdicts, so excluded from the journal echo.
    std::size_t retries = 0;

    // Exhaustive hazard frontier (epa/frontier.hpp, docs/exhaustive-search.md).
    /// Replace the enumerated scenario space + CEGAR with a cardinality-
    /// layered sweep over the fault-subset lattice, reporting the antichain
    /// of minimal hazardous scenarios. Superset pruning is enabled when the
    /// polarity certifier proves the model monotone; otherwise the sweep
    /// degrades to sound per-layer enumeration (same verdicts, no pruning).
    bool exhaustive = false;
    /// Largest fault-subset cardinality swept in exhaustive mode (0 = the
    /// full lattice up to the universe size).
    std::size_t max_card = 0;
    /// Exhaustive mode: drop fault modes on components the attack
    /// reachability taint pass (analysis/taint.hpp) proves unreachable.
    /// Changes the enumerated universe, so it is part of the journal echo.
    bool attack_reachable_only = false;

    // Anytime Bayesian prioritization (risk/prior.hpp, ROADMAP item 4).
    /// Order scenarios are evaluated in: ExpectedRisk (the default) sweeps
    /// by descending expected-risk score (Beta priors from the model bundle
    /// times dependency-reach impact; ties by ascending scenario id) so a
    /// --deadline-ms interruption decides the highest-risk scenarios first.
    /// Enumeration restores generation order. The choice fixes the journal
    /// record order, so it is part of the journal echo; either way reports
    /// and journals stay byte-identical at any --jobs and across resume.
    risk::PriorityPolicy priority_policy = risk::PriorityPolicy::ExpectedRisk;
    /// Seed for the posterior coverage bound rendered in the Completeness
    /// section (`--prior-seed`). Render-only — never changes a verdict or a
    /// journal byte — so excluded from the journal echo.
    unsigned long long prior_seed = 1;
    /// Step 7: additionally compute the mitigation Pareto front over
    /// (cost, residual risk, coverage) — mitigation::ParetoFront, rendered
    /// in all report formats and selectable via `cprisk mitigate --pareto`.
    /// Off by default: the front costs extra solves and the single
    /// cost-optimal selection stays the primary plan either way.
    bool pareto = false;

    // Checkpoint/resume.
    std::string journal_path;  ///< non-empty: append one JSONL verdict per scenario
    bool resume = false;       ///< replay the journal, skipping finished scenarios
    /// fsync the journal after every record (`--journal-sync`,
    /// core::JournalOptions::sync). Durability only — journal bytes are
    /// identical either way — so excluded from the journal echo.
    bool journal_sync = false;
};

/// Wall-clock duration of one pipeline phase (steps 2, 3-5, 6, 7). Timings
/// are observability data: schedule- and machine-dependent, so report
/// renderings include them only on request (ReportOptions::include_timings)
/// and never in the byte-stable JSON export.
struct PhaseTiming {
    std::string phase;  ///< "scenario_space", "cegar", "risk", "mitigation"
    long long ms = 0;
};

/// Summary of an exhaustive frontier run (AssessmentConfig::exhaustive);
/// mirrors epa::FrontierResult minus the per-candidate records.
struct ExhaustiveStats {
    bool enabled = false;
    /// Certificate outcome: "monotone" (pruning licensed), "mixed"
    /// (offenders found, degraded sweep), or "unavailable" (no claim —
    /// ground-once cache or seeding analysis missing, degraded sweep).
    std::string certificate = "unavailable";
    bool pruning = false;
    std::size_t universe_size = 0;
    std::size_t skipped_faults = 0;  ///< dropped by --attack-reachable-only
    std::size_t max_card = 0;        ///< effective layer bound
    std::size_t candidates = 0;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;
    std::size_t minimal_hazards = 0;
    /// First few certificate offender diagnostics (mixed polarity only).
    std::vector<std::string> offenders;
};

/// Anytime-coverage summary under a scoring priority policy: how much of
/// the scenario space's expected-risk mass the decided scenarios cover
/// (risk/prior.hpp). Rendered in the Completeness section so an
/// interrupted run quantifies what its partial answer is worth.
struct PriorityStats {
    bool enabled = false;  ///< policy scored the space (ExpectedRisk)
    std::string policy = "enumeration";
    bool explicit_priors = false;  ///< any `prior=` option in the bundle
    std::size_t prior_count = 0;   ///< fault modes carrying a prior
    long long total_risk_micros = 0;    ///< summed score of the space
    long long covered_risk_micros = 0;  ///< summed score of decided scenarios
    /// Posterior 5th-percentile lower bound on the covered fraction
    /// (micro-units of probability; -1 when the space carries no risk).
    long long coverage_lower_bound_micros = -1;
    unsigned long long prior_seed = 1;  ///< seed behind the bound
};

struct AssessmentReport {
    // Step 1-2.
    std::size_t component_count = 0;
    std::size_t relation_count = 0;
    std::size_t scenario_count = 0;
    // Step 4-5.
    std::vector<epa::ScenarioVerdict> hazards;  ///< confirmed violating scenarios
    std::vector<hierarchy::CegarIterationStats> cegar_iterations;
    std::size_t spurious_eliminated = 0;
    // Completeness: scenarios the engine could not decide within its
    // resource budget, with the reason on each verdict. A non-empty list
    // means the hazard identification was NOT exhaustive, and every report
    // rendering says so.
    std::vector<epa::ScenarioVerdict> undetermined;
    std::size_t resumed_scenarios = 0;  ///< verdicts replayed from the journal
    std::size_t total_decisions = 0;    ///< solver effort across all scenarios
    std::size_t total_conflicts = 0;
    /// Scenarios whose final verdict came from the static ternary prefilter
    /// instead of a CDCL solve (docs/static-analysis.md).
    std::size_t statically_resolved = 0;
    // Step 6.
    std::vector<ScenarioRisk> risks;  ///< sorted by descending risk
    /// Anytime-coverage summary (Completeness section).
    PriorityStats priority;
    // Step 7.
    mitigation::Selection selection;
    std::vector<mitigation::Phase> phases;
    /// Pareto front over (cost, residual risk, coverage); engaged only when
    /// AssessmentConfig::pareto is set (`cprisk mitigate --pareto`).
    std::optional<mitigation::ParetoFront> pareto;
    /// Per-phase wall-clock timings, in pipeline order (see PhaseTiming).
    std::vector<PhaseTiming> phase_timings;
    /// Exhaustive-frontier summary; `enabled` iff the run used --exhaustive.
    ExhaustiveStats exhaustive;

    /// True when every scenario was decided (the run is exhaustive).
    bool complete() const { return undetermined.empty(); }

    TextTable hazard_table() const;
    TextTable risk_table() const;
    TextTable mitigation_table() const;
    /// Pareto front, one row per nondominated point, the knee marked "*"
    /// (empty table when no front was computed).
    TextTable pareto_table() const;
    /// Undetermined scenarios with their reasons and solver stats.
    TextTable completeness_table() const;
    /// Per-phase wall-clock timings (empty table when none were recorded).
    TextTable timing_table() const;
};

class RiskAssessment {
public:
    /// All inputs are borrowed; they must outlive the assessment object.
    /// `catalog` (optional) enables vulnerability-driven scenarios in step 2.
    RiskAssessment(const model::SystemModel& system,
                   std::vector<epa::Requirement> behavioral_requirements,
                   std::vector<epa::Requirement> topology_requirements,
                   const security::AttackMatrix& matrix, const epa::MitigationMap& mitigations,
                   const security::SecurityCatalog* catalog = nullptr);

    /// Runs the full pipeline under `ctx`: ctx carries the budget, worker
    /// pool, trace sink, and metrics registry for the whole run
    /// (docs/observability.md). config.deadline_ms / config.cancel, when
    /// set, are applied to ctx.budget before the pipeline starts. The
    /// context must outlive the call.
    Result<AssessmentReport> run(const AssessmentConfig& config, RunContext& ctx) const;

private:
    const model::SystemModel* system_;
    std::vector<epa::Requirement> behavioral_requirements_;
    std::vector<epa::Requirement> topology_requirements_;
    const security::AttackMatrix* matrix_;
    const epa::MitigationMap* mitigations_;
    const security::SecurityCatalog* catalog_;
};

}  // namespace cprisk::core
