// cprisk/asp/absint/absint.hpp
//
// Ternary abstract interpretation over ground programs: a well-founded
// (alternating must/possible) fixpoint evaluated bottom-up in the SCC
// order of the ground atom dependency graph — the ground-level analogue of
// the predicate-level SCC order that drives the grounder
// (analysis/dependency_graph.hpp). That graph, its SCC schedule and the
// show projection do not depend on the pins, so they are compiled once per
// program into a Plan and shared by every evaluation of it. For every
// answer set M of the program (restricted to the given pins), the result
// brackets M:
//
//     { a : value(a) = True }  ⊆  M  ⊆  { a : value(a) != False }
//
// Choice-rule heads are never forced True (unless pinned), so the bracket
// holds for *every* pin configuration when evaluated pin-free — the property
// the EPA ground-once cache relies on to simplify its shared base program
// once and still answer every pinned solve exactly (epa/epa.cpp).
//
// When the fixpoint decides every atom and the certification checks pass
// (no constraint fires, choice bounds hold, pinned-true atoms are founded by
// a choice rule), the must set is the program's *unique* answer set and the
// caller may skip the solver entirely — the static Safe/Hazard prefilter.
// See docs/static-analysis.md for semantics and the soundness argument.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "asp/absint/ternary.hpp"
#include "asp/ground_program.hpp"
#include "common/budget.hpp"

namespace cprisk::asp::absint {

struct AbsintOptions {
    /// Assumption pins (ground atom id, truth), the same shape the solver
    /// takes: pinned atoms are fixed before the fixpoint runs. Borrowed; may
    /// be null for the open (pin-free) evaluation.
    const std::vector<std::pair<int, bool>>* pins = nullptr;
    /// Optional resource governor: one step is charged per rule visited per
    /// fixpoint sweep. A tripped budget aborts the evaluation with
    /// `interrupted` set and every atom Unknown. Not owned; may be null.
    Budget* budget = nullptr;
};

/// Result of one ternary evaluation.
struct Analysis {
    /// Per-atom verdict, indexed by ground atom id.
    std::vector<Ternary> values;
    /// A must-firing rule derives a pinned-false atom, or the pins
    /// contradict each other (the solver would report unsatisfiable).
    bool conflict = false;
    /// The budget tripped mid-run; `values` is all-Unknown and nothing below
    /// may be trusted.
    bool interrupted = false;
    /// Every atom is decided (True or False) and there is no conflict.
    bool total = false;
    /// `total`, plus: no constraint fires under the must set, every
    /// bounded choice rule's cardinality holds, and every pinned-true atom
    /// is offered by a choice rule whose body holds. The must set is then
    /// the unique answer set under the pins.
    bool certified = false;
    /// Number of decided (non-Unknown) atoms.
    std::size_t decided = 0;

    Ternary value(int atom) const { return values[static_cast<std::size_t>(atom)]; }
    bool must(int atom) const { return value(atom) == Ternary::True; }
    bool possible(int atom) const { return value(atom) != Ternary::False; }
};

/// The pin-independent compiled form of one ground program, in flat CSR
/// arrays (`*_begin[i]` .. `*_begin[i + 1]` spans the entries of `i`): the
/// rule and atom graph, the SCC schedule and the show projection, which no
/// pin configuration changes. Compile it once per program and evaluate every
/// pin configuration against it; it is immutable, so concurrent evaluations
/// share one plan without synchronization. It describes the program it was
/// compiled from and must be rebuilt after that program changes.
struct Plan {
    /// Identity of the compiled program: its address plus the table sizes
    /// evaluate() checks before trusting the arrays below.
    const GroundProgram* program = nullptr;
    std::size_t atoms = 0;
    std::size_t rules = 0;
    std::size_t weaks = 0;

    std::vector<GroundRule::Kind> kind;  ///< rule -> kind
    /// Rule bodies: positive literals in [lit_begin[r], neg_begin[r]),
    /// negative ones in [neg_begin[r], lit_begin[r + 1]).
    std::vector<int> lit_begin;
    std::vector<int> neg_begin;
    std::vector<int> lits;
    std::vector<int> head_begin;  ///< rule -> the atoms it can derive
    std::vector<int> heads;
    /// Atom -> every positive-body occurrence in a rule that derives
    /// something (one entry per occurrence).
    std::vector<int> occ_begin;
    std::vector<int> occ;
    std::vector<char> derivable;  ///< atom has at least one deriving rule
    /// Atom -> index of its SCC in the schedule below; -1 when no rule
    /// derives it.
    std::vector<int> comp_of;
    /// SCCs of the atom dependency graph that own rules, in topological
    /// order (sources first); each lists, ascending, the rules with a head
    /// in it.
    std::vector<int> comp_begin;
    std::vector<int> comp_rules;
    /// Constraints and bounded choice rules: the rules certification checks.
    std::vector<int> checked;
    /// Shown atom ids, sorted by Atom order: the solver's projection.
    std::vector<int> shown;

    /// True when this plan was compiled from `program` as it is now.
    bool describes(const GroundProgram& program) const;
    /// Heap bytes held by the arrays.
    std::size_t bytes() const;
};

/// Compiles `program`. O(rules + literals + atoms log atoms).
Plan compile(const GroundProgram& program);

/// Runs the well-founded fixpoint over `program` under `options`, using
/// `plan`, which must have been compiled from `program` (require()).
Analysis evaluate(const GroundProgram& program, const Plan& plan,
                  const AbsintOptions& options = {});

/// One-shot form: compile(program), then evaluate against it.
Analysis evaluate(const GroundProgram& program, const AbsintOptions& options = {});

/// The projected (shown, sorted) must-true atoms of a certified analysis —
/// exactly the answer set the solver would report (solver.cpp projection).
std::vector<Atom> certified_model(const GroundProgram& program, const Plan& plan,
                                  const Analysis& analysis);

/// Weak-constraint cost of the certified model: distinct (priority, tuple)
/// pairs whose body holds counted once — mirrors the solver's model_cost.
std::map<long long, long long> certified_cost(const GroundProgram& program,
                                              const Analysis& analysis);

struct SimplifyStats {
    std::size_t rules_deleted = 0;
    std::size_t literals_dropped = 0;
    std::size_t facts_added = 0;
    std::size_t atoms_decided = 0;

    bool changed() const { return rules_deleted != 0 || literals_dropped != 0; }
};

/// Shrinks `program` in place using a *pin-free* analysis of the same
/// program: must-true heads collapse to facts, rules with impossible bodies
/// disappear, decided body literals drop out. Answer sets (and their
/// weak-constraint costs) are preserved exactly, for every later pin
/// configuration. The atom table is never renumbered, so interned atom ids
/// held by callers (e.g. the EPA cache's assumption domain) stay valid.
/// `analysis` must not carry a conflict or interrupt.
SimplifyStats simplify(GroundProgram& program, const Analysis& analysis);

}  // namespace cprisk::asp::absint
