// cprisk/asp/solver.hpp
//
// Stable-model (answer set) solver over ground programs (docs/solver.md).
// The front door to the CDCL engine (cdcl.hpp):
//
//  1. Clark completion: one auxiliary variable per ground rule body; clauses
//     tie bodies to their literals, heads to their bodies, and every atom to
//     the disjunction of its potentially supporting bodies.
//  2. Conflict-driven clause learning enumerates supported models.
//  3. Each supported model passes a stability check (least model of the
//     reduct == true atoms). Unstable models are cut with a loop-formula
//     style clause over the unfounded set, which is valid for every answer
//     set, so no stable model is lost.
//  4. Choice-rule cardinality bounds propagate during search and are
//     verified on total assignments.
//  5. Weak constraints are aggregated per priority (each distinct
//     weight/priority/tuple counted once, clingo-style); branch & bound
//     prunes when all weights are non-negative.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asp/ground_program.hpp"
#include "asp/term.hpp"
#include "common/budget.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cprisk::asp {

class IncrementalSolver;  // incremental.hpp

/// One answer set, projected onto the #show signatures.
struct AnswerSet {
    std::vector<Atom> atoms;               ///< shown atoms, sorted
    std::map<long long, long long> cost;   ///< priority -> accumulated cost

    bool contains(const Atom& atom) const;
    /// True if any shown atom has this predicate name (any arity/args).
    bool contains_predicate(const std::string& predicate) const;
    /// All shown atoms with the given predicate name.
    std::vector<Atom> with_predicate(const std::string& predicate) const;

    std::string to_string() const;
};

struct SolveOptions {
    /// Optional warm solver (borrowed, caller synchronizes). When set and
    /// bound to the same ground program, the solve reuses the already built
    /// completion and every entailed clause learned by earlier solves
    /// instead of rebuilding from scratch. A program mismatch falls back to
    /// a cold solve.
    IncrementalSolver* incremental = nullptr;
    /// Stop after this many (projected, distinct) models; 0 = no limit.
    std::size_t max_models = 0;
    /// When weak constraints are present, keep only optimal models.
    bool optimize = true;
    /// Per-solve decision quota; an exceeded search stops and reports a
    /// SolveInterrupt with the stats at the stopping point (0 = unlimited).
    std::size_t max_decisions = 50'000'000;
    /// Propagate cardinality bounds of choice rules during search (ablation
    /// knob; leaf-only checking remains correct but exponentially slower on
    /// tightly-bounded programs).
    bool propagate_bounds = true;
    /// Optional shared resource governor (wall-clock deadline, cross-solve
    /// decision quota, cancellation). Not owned; may be nullptr.
    Budget* budget = nullptr;
    /// Assumptions applied as permanent decision-level-0 assignments before
    /// search: (ground atom id, truth value) pairs. This is the
    /// ground-once/solve-many idiom (clingo's #external): ground one program
    /// whose delta domain is left open via singleton choice shells, then pin
    /// each shell true/false per solve. Pinned-false choice atoms are absent
    /// from every model, exactly as if their fact had never been grounded.
    /// Contradictory or out-of-range atom ids make the program trivially
    /// unsatisfiable.
    std::vector<std::pair<int, bool>> assumptions;
    /// Observability (docs/observability.md): one "asp.solve" span per call
    /// plus asp.solve.* counters recorded from the final SolveStats — the
    /// search inner loop is never instrumented. Both borrowed; nullptr
    /// disables. Usually threaded from RunContext by the caller.
    obs::TraceSink* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
};

struct SolveStats {
    std::size_t decisions = 0;
    std::size_t propagations = 0;
    std::size_t conflicts = 0;
    std::size_t stability_rejects = 0;
    std::size_t models_enumerated = 0;  ///< pre-projection, pre-optimality filter
    // Search-internal fields. Deliberately NOT serialized into journal
    // verdicts (core/journal.cpp records only the five counters above), so
    // the journal format stays independent of learning and restart policy.
    std::size_t restarts = 0;         ///< Luby restarts performed
    std::size_t learned_clauses = 0;  ///< clauses learned this solve
    std::size_t learned_literals = 0; ///< total literals across learned clauses
    std::size_t db_reductions = 0;    ///< learned-clause DB reduction passes
    /// Propagations whose reason was a clause learned by an *earlier* solve
    /// on the same IncrementalSolver — the cross-scenario reuse signal.
    std::size_t reused_clause_propagations = 0;
};

/// Structured record of a search stopped early by a resource budget. The
/// enumeration below the stopping point was not explored, so a result that
/// carries an interrupt is a sound *under*-approximation: the models listed
/// are answer sets, but absence of a model proves nothing.
struct SolveInterrupt {
    BudgetReason reason = BudgetReason::DecisionLimit;
    SolveStats stats;  ///< work done up to the stopping point

    /// e.g. "decision budget exceeded (decisions=50000001, conflicts=1327,
    /// propagations=...)" — stats ride along in every diagnostic.
    std::string to_string() const;
};

struct SolveResult {
    bool satisfiable = false;
    std::vector<AnswerSet> models;          ///< distinct projected answer sets
    std::map<long long, long long> best_cost;  ///< optimum, when optimizing
    SolveStats stats;
    /// Set when the search stopped early (budget/deadline/cancellation); the
    /// models above are then a partial enumeration.
    std::optional<SolveInterrupt> interrupt;
    /// When the program is UNSAT under `options.assumptions` and
    /// the search completed, the subset of assumptions that participated in
    /// the final conflict (MiniSat's analyzeFinal). Any assignment extending
    /// this core is also unsatisfiable, so over scenario-fault pins a core is
    /// a hazardous sub-scenario (frontier seeding, docs/exhaustive-search.md).
    /// Unset for SAT results and interrupted searches.
    std::optional<std::vector<std::pair<int, bool>>> assumption_core;

    /// True when the search ran to completion (result is exhaustive).
    bool complete() const { return !interrupt.has_value(); }
};

/// Solves `program`. Budget exhaustion is not a failure: the result carries a
/// SolveInterrupt plus whatever models were found. Fails only on injected or
/// internal solver errors.
Result<SolveResult> solve(const GroundProgram& program, const SolveOptions& options = {});

}  // namespace cprisk::asp
