// cprisk/asp/cdcl.hpp
//
// Conflict-driven clause learning (CDCL) engine behind the stable-model
// solver's front door, asp::solve() in solver.hpp (docs/solver.md). It
// enumerates the Clark completion of a ground program to (projected,
// distinct) answer sets with their costs and optima, searched with the
// modern toolbox:
//
//  1. Two-watched-literal unit propagation (no per-clause counters, no
//     touch-every-clause backtracking).
//  2. First-UIP conflict analysis producing learned clauses and backjumps.
//  3. EVSIDS variable activities with phase saving, reset to a canonical
//     state at the start of every solve so results are deterministic
//     functions of (program, retained clauses, options).
//  4. Luby-sequence restarts and LBD ("glue") based learned-clause database
//     reduction.
//  5. MiniSat-style assumption handling: `SolveOptions::assumptions` become
//     decision levels 1..k; an UNSAT outcome yields the final-conflict
//     assumption core on `SolveResult::assumption_core`.
//
// Answer-set specifics ride the same machinery: stability rejection adds
// loop-formula cuts, bounded choice rules propagate through explained
// entailed clauses, and non-answer-set leaves (aggregates) are excluded with
// blocking clauses. Clauses carry a `transient` taint —
// model-blocking and cost-bound cuts depend on the enumeration context and
// are dropped at solve end, while loop cuts and bound explanations are
// entailed by the program and persist. A CdclSolver kept alive across solves
// (see incremental.hpp) therefore re-uses every entailed clause learned by
// earlier scenario solves on the same grounded base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "asp/ground_program.hpp"
#include "asp/solver.hpp"

namespace cprisk::asp {

class CdclSolver {
public:
    /// Builds the Clark completion once. The program is borrowed and must
    /// outlive the solver; it must not change between solves.
    explicit CdclSolver(const GroundProgram& program);

    CdclSolver(const CdclSolver&) = delete;
    CdclSolver& operator=(const CdclSolver&) = delete;

    /// One full enumeration under `options.assumptions`. Heuristic state
    /// (activities, phases, restart schedule) is reset to a canonical
    /// starting point; entailed clauses retained from earlier solves on this
    /// instance are kept and re-used. Deterministic for a fixed sequence of
    /// solve calls on one instance.
    SolveResult solve(const SolveOptions& options);

    const GroundProgram* program() const { return &program_; }

    /// Entailed learned clauses currently retained (survives solve() calls;
    /// shrinks only via DB reduction).
    std::size_t retained_learned() const { return retained_learned_; }

    /// Number of solve() calls completed on this instance.
    std::size_t solve_generation() const { return generation_; }

private:
    struct Clause {
        std::vector<int> lits;
        double activity = 0.0;
        int lbd = 0;
        std::uint32_t birth = 0;    ///< solve generation that learned it
        bool learnt = false;        ///< conflict-analysis product (reducible)
        bool transient = false;     ///< depends on enumeration context; dropped at solve end
        bool deleted = false;       ///< tombstoned by DB reduction
        bool attached = false;      ///< has watch entries (markers/units do not)
    };

    struct Watcher {
        int clause = -1;
        int blocker = 0;  ///< literal whose truth satisfies the clause cheaply
    };

    // Construction.
    void build();
    int add_clause(std::vector<int> lits, bool learnt, bool transient);
    void attach_clause(int id);

    // Assignment and propagation.
    bool value_true(int lit) const;
    bool value_false(int lit) const;
    bool lit_unassigned(int lit) const;
    int current_level() const { return static_cast<int>(trail_lim_.size()); }
    void enqueue(int lit, int reason);
    int propagate();  ///< returns conflicting clause id, or -1
    bool propagate_bounds(bool& progressed);
    bool force_with_explanation(int lit, std::vector<int> explain);
    int add_unit_conflict_marker(std::vector<int> lits);
    int propagate_all();  ///< unit + bound propagation to fixpoint; conflict id or -1
    void cancel_until(int level);
    void new_decision_level() { trail_lim_.push_back(trail_.size()); }

    // Conflict analysis.
    int analyze(int conflict, std::vector<int>& learnt_out, bool& transient_out);
    void analyze_final(int conflict_clause, int seed_var);
    void bump_var(int var);
    void bump_clause(int clause);
    void decay_var_activity();
    int compute_lbd(const std::vector<int>& lits);

    // Decision heuristic (indexed max-heap over activities, deterministic
    // tie-break on the smaller variable index).
    void heap_insert(int var);
    void heap_update(int var);
    int heap_pop();
    bool heap_less(int a, int b) const;  ///< priority order: true when a ranks below b
    void heap_sift_up(std::size_t i);
    void heap_sift_down(std::size_t i);
    int pick_branch_var();

    // Answer-set leaf checks.
    bool body_satisfied_in_model(const GroundRule& rule) const;
    bool aggregate_holds(const GroundAggregate& aggregate) const;
    bool aggregates_ok() const;
    bool bounds_ok() const;
    bool stable(std::vector<int>& unfounded_out) const;
    std::vector<int> unfounded_cut(const std::vector<int>& unfounded) const;

    // Costs (weak_cost() in ground_program.hpp defines the cost elements).
    std::map<long long, long long> model_cost() const;
    std::map<long long, long long> partial_cost_lower_bound() const;
    bool should_prune_by_cost() const;
    std::vector<int> cost_cut_clause() const;

    // Search driver.
    bool push_assumptions();
    void search_loop();
    void finalize_solve();
    void record_model();
    bool model_limit_reached() const;
    std::vector<int> blocking_clause(int floor_level) const;
    std::vector<int> bounds_violation_cut() const;
    /// Installs an entailed or blocking clause that is falsified by the
    /// current assignment and resolves it like a conflict. Returns false when
    /// the clause closes the search at or below the assumption root.
    bool resolve_cut(std::vector<int> lits, bool transient);
    bool handle_conflict(int conflict);
    void reduce_db();
    void restart();
    void remove_transients();
    static std::size_t luby(std::size_t i);

    const GroundProgram& program_;
    const SolveOptions* options_ = nullptr;  ///< valid during solve()

    int n_vars_ = 0;
    int n_atoms_ = 0;
    std::vector<Clause> clauses_;
    std::vector<std::vector<Watcher>> watches_;  ///< indexed by literal
    std::vector<int8_t> assign_;                 ///< variable -> {-1,0,1}
    /// Level-0 assignments forced through a transient clause (model blocking,
    /// cost cuts) hold only for the rest of the current enumeration, not
    /// forever: they must not survive finalize_solve(), must not be silently
    /// dropped from permanent cuts, and taint any clause learned across them.
    std::vector<std::uint8_t> unit_taint_;
    std::vector<int> trail_;
    std::vector<std::size_t> trail_lim_;
    std::size_t qhead_ = 0;
    std::vector<int> reason_;         ///< variable -> clause id or -1
    std::vector<int> level_;          ///< variable -> decision level
    std::vector<std::uint8_t> phase_; ///< saved phase, 1 = true
    std::vector<double> activity_;
    std::vector<double> base_activity_;  ///< occurrence counts; canonical reset value
    double var_inc_ = 1.0;
    double clause_inc_ = 1.0;

    std::vector<int> heap_;      ///< heap of variables
    std::vector<int> heap_pos_;  ///< variable -> index in heap_, or -1

    std::vector<int> bounded_choices_;
    std::vector<int> aggregate_constraints_;
    /// Dedup for re-derivable entailed cuts (bound explanations, loop cuts):
    /// normalized literals -> installed clause id.
    std::map<std::vector<int>, int> derived_cut_cache_;
    std::vector<int> permanent_units_;  ///< size-1 entailed clauses, re-asserted each solve
    bool has_weaks_ = false;
    bool negative_weights_ = false;
    bool root_conflict_ = false;  ///< program UNSAT regardless of assumptions

    // Per-solve state.
    int root_level_ = 0;  ///< decision level holding the last assumption
    std::vector<AnswerSet> found_;
    std::map<long long, long long> best_cost_;
    bool have_best_ = false;
    SolveStats stats_;
    std::optional<BudgetReason> interrupt_reason_;
    std::vector<std::pair<int, bool>> core_;
    bool core_valid_ = false;
    std::size_t restart_seq_ = 0;
    std::size_t conflicts_since_restart_ = 0;
    std::size_t conflicts_until_restart_ = 0;
    std::size_t learnt_limit_ = 0;
    std::size_t cur_learnt_ = 0;  ///< live reducible learned clauses
    int pending_bound_conflict_ = -1;
    std::vector<std::pair<int, bool>> assump_by_level_;  ///< level-1 .. root assumptions
    bool learning_disabled_ = false;  ///< fault seam asp.cdcl.learn tripped

    std::vector<std::uint8_t> seen_;  ///< scratch for analyze/analyze_final

    std::uint32_t generation_ = 0;
    std::size_t retained_learned_ = 0;
};

}  // namespace cprisk::asp
