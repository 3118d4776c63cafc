// cprisk/epa/frontier.hpp
//
// Exhaustive hazard frontier (paper step 4 taken literally): a
// cardinality-layered sweep over the 2^n fault-subset lattice that reports
// the *antichain of minimal hazardous scenarios* — the minimal-cut-set
// vocabulary of classical FTA, computed on the behavioural EPA instead of
// a hand-built tree.
//
// When the polarity certifier proves the hazard verdicts monotone
// non-decreasing in fault-set inclusion (epa::certify_monotonicity,
// asp/polarity.hpp), every superset of a known-hazardous set is hazardous
// by the certificate and is pruned without a solve; the lattice collapses
// to the frontier around the antichain. On a mixed-polarity certificate
// (or no ground-once cache) the sweep degrades to sound per-layer
// enumeration without superset pruning — same verdicts, every candidate
// solved — and the report's Completeness section says so.
//
// Layers run through the existing machinery: the GroundedBase cache pins
// each subset via assumptions, the absint prefilter decides statically
// certifiable candidates without a CDCL search, and each layer runs through
// the ordered sweep (common/ordered_sweep.hpp) on the RunContext's pool, as
// run_cegar does: finished candidates drain to the journal hooks in strict
// candidate order, so --exhaustive journals resume byte-identically at any
// job count. See docs/exhaustive-search.md.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "epa/epa.hpp"
#include "hierarchy/cegar.hpp"
#include "obs/run_context.hpp"
#include "risk/prior.hpp"

namespace cprisk::epa {

struct FrontierOptions {
    /// Largest fault-subset cardinality to enumerate; 0 = the full lattice
    /// (every layer up to the universe size).
    std::size_t max_card = 0;
    std::vector<std::string> active_mitigations;
    /// Attack-reachability filter (analysis/taint.hpp): when set, fault
    /// modes on components outside the set are dropped from the universe
    /// and counted in FrontierResult::skipped_faults. Borrowed; may be
    /// null (every declared fault mode is enumerated).
    const std::set<model::ComponentId>* component_filter = nullptr;
    /// Checkpoint/resume seams, the CEGAR contract: `lookup` replays a
    /// journaled record instead of evaluating, `completed` receives fresh
    /// records in strict candidate order.
    hierarchy::CegarHooks hooks;
    /// Evaluation order within each cardinality layer (risk/prior.hpp):
    /// under PriorityPolicy::ExpectedRisk the layer's candidates are sorted
    /// by descending expected risk (ties by ascending id) before
    /// evaluation, so a deadline interruption decides the highest-risk
    /// candidates first. Layers still ascend by cardinality — minimality
    /// of the antichain requires it. Borrowed; null = enumeration order.
    const risk::ScenarioPriority* priority = nullptr;
    /// Unified run state (budget, pool, trace, metrics); borrowed.
    RunContext* ctx = nullptr;

    obs::TraceSink* trace_sink() const { return ctx != nullptr ? ctx->trace : nullptr; }
    obs::MetricsRegistry* metrics_sink() const { return ctx != nullptr ? ctx->metrics : nullptr; }
};

struct FrontierResult {
    /// The monotonicity certificate, when the ground-once cache and its
    /// seeding analysis were available (nullopt = no claim, degraded sweep).
    std::optional<asp::polarity::MonotonicityCertificate> certificate;
    /// True iff the certificate proved monotonicity — supersets of
    /// hazardous sets were pruned instead of solved.
    bool pruning = false;

    std::size_t universe_size = 0;   ///< fault modes enumerated
    std::size_t skipped_faults = 0;  ///< dropped by the component filter
    std::size_t max_card = 0;        ///< effective layer bound
    std::size_t candidates = 0;      ///< subsets considered (incl. pruned)
    std::size_t evaluated = 0;       ///< fresh epa.evaluate() calls
    std::size_t replayed = 0;        ///< records replayed from the journal
    std::size_t pruned = 0;          ///< superset-pruned without a solve
    /// Strictly-smaller UNSAT cores of confirmed hazards seeded into the
    /// pruning antichain (epa::hazard_core; only under a monotone
    /// certificate). Seeds widen the pruning cone but are never reported as
    /// minimal_hazards themselves — those stay evaluated verdicts.
    std::size_t core_seeded = 0;

    /// Minimal hazardous fault sets — an antichain, in layer order. With
    /// pruning these are exactly the sets evaluated Hazard; without, the
    /// non-minimal hazards are evaluated too but absorbed here.
    std::vector<ScenarioVerdict> minimal_hazards;
    std::vector<ScenarioVerdict> undetermined;
    /// Every evaluated or replayed candidate in candidate order (the
    /// journal mirror).
    std::vector<hierarchy::ScenarioRecord> records;
};

/// Deterministic journal id of a fault subset: "exh:" + mutations joined
/// with '+' in sorted order; "exh:none" for the empty baseline set.
std::string frontier_scenario_id(const std::vector<security::Mutation>& subset);

/// The scenario the frontier evaluates for `subset` (sorted): deterministic
/// id, FaultCombination origin, combined fault-mode likelihood. Exposed so
/// downstream phases (mitigation planning) can rebuild the scenario a
/// frontier verdict came from.
security::AttackScenario frontier_scenario(const model::SystemModel& model,
                                           std::vector<security::Mutation> subset);

/// Runs the layered sweep over `epa` (which supplies the model, the
/// requirements, and the ground-once cache). Fails only on hard errors
/// (inconsistent model, journal append failure); budget exhaustion
/// degrades candidates to Undetermined verdicts instead.
Result<FrontierResult> run_frontier(const ErrorPropagationAnalysis& epa,
                                    const FrontierOptions& options = {});

}  // namespace cprisk::epa
