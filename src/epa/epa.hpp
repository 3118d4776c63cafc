// cprisk/epa/epa.hpp
//
// Qualitative error propagation analysis (the paper's embedded EPA core,
// ref [4]): assess the system-level impact of local faults/attacks by
// exhaustive reasoning over the merged model.
//
// For each scenario (a set of candidate mutations) the engine:
//  1. translates the model to ASP facts (model/to_asp.hpp);
//  2. adds the fault-activation rule of Listing 1 (a scenario fault is
//     injected unless an active mitigation suppresses it);
//  3. adds propagation semantics — generic topology rules (errors persist
//     and flow along `connected/2`) and/or the per-component qualitative
//     behaviour fragments (detailed focus, Fig. 3);
//  4. compiles each requirement's LTLf formula to `violated/1` rules;
//  5. solves and reports violations, the propagation path and impact
//     severity.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "asp/asp.hpp"
#include "asp/polarity.hpp"
#include "common/budget.hpp"
#include "epa/requirement.hpp"
#include "obs/run_context.hpp"
#include "model/system_model.hpp"
#include "security/attack_matrix.hpp"
#include "security/scenario.hpp"

namespace cprisk::epa {

/// Hierarchical evaluation focus (paper §VI, Fig. 3).
enum class AnalysisFocus : std::uint8_t {
    Topology,    ///< focus 1: main assets, generic propagation only
    Behavioral,  ///< focus 2: detailed propagation via behaviour models
};

/// Maps mitigations to the (component, fault) pairs they suppress.
/// Derivable from an AttackMatrix (techniques blocked by a mitigation no
/// longer activate their fault) or hand-authored.
class MitigationMap {
public:
    void add(const std::string& mitigation_id, const model::ComponentId& component,
             const std::string& fault_id);

    /// Derives suppressions from `matrix` over `model`: for each technique
    /// and each component it applies to, every mitigation of the technique
    /// suppresses the technique's caused fault on that component.
    static MitigationMap from_attack_matrix(const model::SystemModel& model,
                                            const security::AttackMatrix& matrix);

    struct Entry {
        std::string mitigation_id;
        model::ComponentId component;
        std::string fault_id;
    };
    const std::vector<Entry>& entries() const { return entries_; }

private:
    std::vector<Entry> entries_;
};

/// One step of an extracted propagation path.
struct PropagationStep {
    int time = 0;
    model::ComponentId component;
};

/// Outcome class of one scenario evaluation. `Hazard` is existentially sound
/// even under an interrupted search (a violating trajectory was exhibited);
/// `Safe` claims exhaustiveness and is only issued by a complete solve;
/// `Undetermined` records that the engine ran out of resources (or hit a
/// solver error) before either could be established.
enum class VerdictStatus : std::uint8_t { Safe, Hazard, Undetermined };

/// Why a scenario ended Undetermined.
enum class UndeterminedReason : std::uint8_t {
    Timeout,        ///< wall-clock deadline exceeded
    DecisionLimit,  ///< decision/step quota exhausted
    Cancelled,      ///< external cancellation
    SolverError,    ///< grounder/solver failed (e.g. injected fault)
};

/// How a verdict was established. `Static` verdicts were decided by the
/// ternary abstract interpreter (asp/absint) certifying the unique answer
/// set without running the CDCL search; they are byte-identical to the
/// verdict the solver would have produced (docs/static-analysis.md).
enum class VerdictProvenance : std::uint8_t { Solver, Static };

std::string_view to_string(VerdictStatus status);
std::string_view to_string(UndeterminedReason reason);
std::string_view to_string(VerdictProvenance provenance);
std::optional<VerdictStatus> parse_verdict_status(std::string_view text);
std::optional<UndeterminedReason> parse_undetermined_reason(std::string_view text);
std::optional<VerdictProvenance> parse_verdict_provenance(std::string_view text);
UndeterminedReason undetermined_reason_from(BudgetReason reason);

/// Verdict for one scenario.
struct ScenarioVerdict {
    std::string scenario_id;
    std::vector<security::Mutation> mutations;
    std::vector<std::string> active_mitigations;
    std::vector<std::string> violated_requirements;  ///< requirement ids, sorted
    std::vector<security::Mutation> injected;  ///< mutations actually activated
    std::vector<PropagationStep> propagation;  ///< error spread over time
    qual::Level severity = qual::Level::VeryLow;    ///< impact (max reached asset value)
    qual::Level likelihood = qual::Level::VeryLow;  ///< scenario likelihood
    /// Full qualitative counterexample trace (state atoms per time step),
    /// populated when EpaOptions::collect_trace is set.
    asp::ltl::Trace trace;

    VerdictStatus status = VerdictStatus::Safe;
    /// Set iff status == Undetermined.
    std::optional<UndeterminedReason> undetermined_reason;
    /// Human-readable diagnostic for an undetermined verdict, including the
    /// solver stats at the stopping point.
    std::string undetermined_detail;
    /// Search effort for this scenario (decisions, conflicts, ...). All
    /// zeros for statically resolved verdicts.
    asp::SolveStats solver_stats;
    /// Whether the CDCL solver or the static prefilter produced the verdict.
    VerdictProvenance provenance = VerdictProvenance::Solver;

    bool violates(const std::string& requirement_id) const;
    bool any_violation() const { return !violated_requirements.empty(); }
    bool undetermined() const { return status == VerdictStatus::Undetermined; }
};

struct EpaOptions {
    AnalysisFocus focus = AnalysisFocus::Behavioral;
    int horizon = 4;  ///< temporal unrolling depth
    /// Collect the full qualitative trace into each verdict (projects every
    /// atom instead of the violation summary — slower, for explanation).
    bool collect_trace = false;
    /// Per-scenario solver decision cap (0 = keep the solver default).
    std::size_t max_decisions = 0;
    /// Unified run state: budget, worker pool, trace sink, metrics registry
    /// (obs/run_context.hpp). Borrowed; must outlive the analysis. Budget
    /// exhaustion and solver errors degrade the affected scenario to an
    /// Undetermined verdict instead of failing the evaluation.
    RunContext* ctx = nullptr;
    /// Ground-once/solve-many: ground the base program a single time at
    /// create() with an *open* scenario-fault/mitigation domain (singleton
    /// choice shells), then let every evaluate() pin that domain via solver
    /// assumptions instead of re-grounding from scratch. Scenarios that
    /// reference atoms outside the precomputed domain, and analyses whose
    /// base grounding failed (budget trip, injected fault), silently fall
    /// back to the per-scenario grounding path. See docs/performance.md.
    bool ground_once = true;
    /// Ternary abstract-interpretation prefilter over the ground-once cache
    /// (asp/absint, docs/static-analysis.md): pin a scenario's assumption
    /// domain, rerun the cheap propagation, and emit the verdict without the
    /// CDCL search whenever the fixpoint certifies a unique answer set.
    /// Verdicts are identical either way; only `provenance` differs. Only
    /// effective on the cached (ground_once) path.
    bool static_prefilter = true;

    /// Resolved views over the run context (single reading site each).
    Budget* effective_budget() const { return ctx != nullptr ? &ctx->budget : nullptr; }
    obs::TraceSink* trace_sink() const { return ctx != nullptr ? ctx->trace : nullptr; }
    obs::MetricsRegistry* metrics_sink() const { return ctx != nullptr ? ctx->metrics : nullptr; }
};

/// Immutable product of grounding the base program once with an open
/// scenario delta domain (defined in epa.cpp; shared across threads).
struct GroundedBase;

/// Thread-safe cache of ground-once bases, keyed by (focus, horizon,
/// collect_trace), so repeated analyses of the SAME model + requirements +
/// mitigation map skip the base grounding entirely — the daemon keeps one
/// per served model (src/serve/model_cache.hpp) and wires it through
/// RunContext::base_cache. Sharing a cache across different models or
/// requirement sets is undefined: the key does not capture them. Entries
/// are immutable GroundedBase snapshots, safe to hand to concurrent
/// evaluations; eviction happens at whole-model granularity in the daemon's
/// LRU, never per entry.
class GroundedBaseCache {
public:
    GroundedBaseCache();
    ~GroundedBaseCache();
    GroundedBaseCache(const GroundedBaseCache&) = delete;
    GroundedBaseCache& operator=(const GroundedBaseCache&) = delete;

    std::size_t entries() const;
    /// Approximate resident size of the cached ground programs, for the
    /// daemon's memory-cap accounting (estimated at insert; docs/serve.md).
    std::size_t approx_bytes() const;

private:
    friend class ErrorPropagationAnalysis;
    /// Key: (focus, horizon, collect_trace) — everything else that shapes
    /// the grounded base is fixed per cache by the contract above.
    using Key = std::tuple<int, int, bool>;

    std::shared_ptr<const GroundedBase> find(const Key& key) const;
    void insert(const Key& key, std::shared_ptr<const GroundedBase> base, std::size_t bytes);

    mutable std::mutex mutex_;
    std::map<Key, std::pair<std::shared_ptr<const GroundedBase>, std::size_t>> entries_;
    std::size_t bytes_ = 0;
};

class ErrorPropagationAnalysis {
public:
    /// Fails if the model does not validate or a behaviour fragment does not
    /// parse. The analysis *borrows* `model`: it must stay alive (and at the
    /// same address — beware of moving the owning object) for the lifetime
    /// of the returned analysis.
    static Result<ErrorPropagationAnalysis> create(const model::SystemModel& model,
                                                   std::vector<Requirement> requirements,
                                                   const MitigationMap& mitigations,
                                                   const EpaOptions& options = {});

    /// Evaluates one scenario under a set of active mitigations. When the
    /// run context carries an enabled RetryPolicy (common/retry.hpp), a
    /// transient Undetermined{solver_error} verdict is re-attempted with
    /// jittered backoff before the degraded verdict is accepted; budget
    /// trips (deadline/decision/cancel) are permanent and never retried.
    Result<ScenarioVerdict> evaluate(const security::AttackScenario& scenario,
                                     const std::vector<std::string>& active_mitigations) const;

    /// Exhaustively evaluates every scenario of the space (paper step 4:
    /// "all the candidate attack scenarios over the joint model undergo
    /// exhaustive analysis").
    Result<std::vector<ScenarioVerdict>> evaluate_all(
        const security::ScenarioSpace& space,
        const std::vector<std::string>& active_mitigations) const;

    /// Bounded-model-checking style time-to-hazard: the smallest horizon at
    /// which the scenario violates any requirement (re-running the analysis
    /// at increasing depth), or nullopt if no violation up to this
    /// analysis's configured horizon. A small value marks fast-acting
    /// hazards that leave little reaction time. Caveat: under finite-trace
    /// (LTLf) semantics, response requirements (G(p -> F q)) can report
    /// violations at horizons too short for the response to arrive; the
    /// metric is crisp for safety (never) requirements.
    Result<std::optional<int>> min_violation_horizon(
        const security::AttackScenario& scenario,
        const std::vector<std::string>& active_mitigations) const;

    const std::vector<Requirement>& requirements() const { return requirements_; }
    const model::SystemModel& system_model() const { return *model_; }

    /// The assembled base program (facts + propagation + requirements), for
    /// inspection/debugging.
    const asp::Program& base_program() const { return base_program_; }

    /// Requirement ids whose violation is statically *reachable*: the open
    /// (pin-free) ternary analysis of the ground-once base left their
    /// `violated/1` atom possible under at least one fault/mitigation
    /// configuration. A requirement absent from this list can never be
    /// violated at this focus/horizon — the `model-hazard-unreachable` lint.
    /// Conservatively returns every requirement id when the cache or the
    /// analysis is unavailable.
    std::vector<std::string> statically_reachable_violations() const;

    /// Monotonicity certificate for the grounded scenario-fault domain under
    /// a fixed active-mitigation set (asp/polarity.hpp): sign propagation
    /// over the ground-once cache, seeded with a ternary analysis that pins
    /// only the mitigation shells (faults stay open). A monotone certificate
    /// licenses superset pruning in the exhaustive frontier sweep
    /// (epa/frontier.hpp, docs/exhaustive-search.md). Returns nullopt — no
    /// claim either way — when the cache is unavailable, a mitigation is
    /// outside the grounded domain, or the seeding analysis conflicts or
    /// runs out of budget.
    std::optional<asp::polarity::MonotonicityCertificate> certify_monotonicity(
        const std::vector<std::string>& active_mitigations) const;

    /// UNSAT-core explanation of a hazard: the subset of `scenario`'s faults
    /// that *forces* a requirement violation, extracted from the
    /// final-conflict assumption core of a CDCL probe solve that pins the
    /// ground-once base's `__hazard_probe` guard true (every answer set must
    /// then be violation-free; UNSAT proves none is). The returned set is
    /// hazardous on its own — any pin extension of the core stays UNSAT —
    /// and under a monotone certificate so is each of its supersets, which
    /// is how the exhaustive frontier seeds its pruning antichain
    /// (epa/frontier.cpp, docs/exhaustive-search.md). Returns nullopt when
    /// no claim can be made: cache unavailable, scenario outside the
    /// grounded domain, probe solve interrupted or failed, or the probe is
    /// satisfiable (some trajectory avoids every violation, so the hazard
    /// is existential rather than forced).
    std::optional<std::vector<security::Mutation>> hazard_core(
        const security::AttackScenario& scenario,
        const std::vector<std::string>& active_mitigations) const;

private:
    ErrorPropagationAnalysis() = default;

    /// One evaluation attempt (the pre-retry evaluate body): cached
    /// assumptions path, static prefilter, or full reground.
    Result<ScenarioVerdict> evaluate_once(
        const security::AttackScenario& scenario,
        const std::vector<std::string>& active_mitigations) const;

    /// Assumption literals pinning the grounded delta domain to `scenario` +
    /// `active_mitigations`, or nullopt when the cache is absent or the
    /// scenario references atoms outside the precomputed domain (legacy
    /// per-scenario grounding handles those).
    std::optional<std::vector<std::pair<int, bool>>> cached_assumptions(
        const security::AttackScenario& scenario,
        const std::vector<std::string>& active_mitigations) const;

    /// Shared verdict extraction over the solve result (both the cached and
    /// the full-reground path end here).
    Result<ScenarioVerdict> finish_verdict(ScenarioVerdict verdict,
                                           const Result<asp::SolveResult>& solved) const;

    const model::SystemModel* model_ = nullptr;
    std::vector<Requirement> requirements_;
    MitigationMap mitigations_;
    EpaOptions options_;
    asp::Program base_program_;
    /// Non-null iff the ground-once cache was built successfully; never
    /// mutated after create(), so concurrent evaluate() calls share it.
    std::shared_ptr<const GroundedBase> grounded_base_;
};

}  // namespace cprisk::epa
