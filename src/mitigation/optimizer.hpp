// cprisk/mitigation/optimizer.hpp
//
// Cost-benefit optimization engines (paper §IV-D): select the mitigation
// set minimizing mitigation cost + residual loss, optionally under a
// mitigation budget. Two interchangeable engines are provided — an exact
// branch-and-bound and an ASP encoding solved by the embedded reasoner —
// and benchmarked against each other (DESIGN.md ablation 1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "mitigation/problem.hpp"
#include "obs/run_context.hpp"

namespace cprisk::mitigation {

struct Selection {
    std::vector<std::string> chosen;      ///< mitigation ids, sorted
    long long mitigation_cost = 0;
    long long residual_loss = 0;          ///< losses of unblocked threats
    std::vector<std::string> unblocked;   ///< scenario ids left unblocked

    long long total_cost() const { return mitigation_cost + residual_loss; }
};

struct OptimizerOptions {
    /// Cap on the sum of chosen mitigation costs; nullopt = unconstrained
    /// ("constraint on the mitigation budgets", §IV-D). Distinct from the
    /// run's resource Budget, which lives on `ctx`.
    std::optional<long long> budget;
    /// Unified run state for observability (obs/run_context.hpp): one
    /// "mitigation.optimize" span plus mitigation.* instruments per call.
    /// Borrowed; nullptr disables.
    RunContext* ctx = nullptr;

    obs::TraceSink* trace_sink() const { return ctx != nullptr ? ctx->trace : nullptr; }
    obs::MetricsRegistry* metrics_sink() const { return ctx != nullptr ? ctx->metrics : nullptr; }
};

/// Exact branch & bound over mitigation subsets.
Selection optimize_exact(const MitigationProblem& problem, const OptimizerOptions& options = {});

/// The same problem encoded as an ASP program with choice rules and weak
/// constraints, solved by the embedded engine. Budget is handled by
/// iterative tightening (the core language has no sum aggregates).
Result<Selection> optimize_asp(const MitigationProblem& problem,
                               const OptimizerOptions& options = {});

/// Renders the ASP encoding of `problem` (for inspection and tests).
std::string encode_asp(const MitigationProblem& problem);

/// One nondominated mitigation portfolio on the (cost, residual risk,
/// coverage) trade-off surface. Coverage counts the threats the selection
/// blocks.
struct ParetoPoint {
    Selection selection;
    std::size_t coverage = 0;

    long long cost() const { return selection.mitigation_cost; }
    long long residual() const { return selection.residual_loss; }
};

/// The nondominated set over (mitigation cost asc, residual loss asc,
/// coverage desc). Construction filters dominated points, deduplicates
/// equal objective tuples toward the lexicographically smallest chosen
/// set, and sorts by ascending cost — the front is a pure function of the
/// input points, so reports render it deterministically.
class ParetoFront {
public:
    ParetoFront() = default;
    explicit ParetoFront(std::vector<ParetoPoint> points);

    const std::vector<ParetoPoint>& points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /// The recommended single plan: minimum total cost (mitigation +
    /// residual), ties toward higher coverage, then the lexicographically
    /// smallest chosen set. Requires a non-empty front.
    const ParetoPoint& knee() const;

private:
    std::vector<ParetoPoint> points_;
};

/// Primary Pareto engine: the solver's weak-constraint optimization —
/// residual@3, cost@2, uncovered count@1 — swept under iterated bound
/// cuts. For each coverage floor the encoding is re-solved with the
/// mitigation budget cut below the last optimum until unsatisfiable; the
/// union of optima, filtered by ParetoFront, is the exact nondominated
/// set (property-tested against pareto_front_exact).
/// `options.budget`, when set, caps the mitigation cost of every point.
Result<ParetoFront> pareto_front(const MitigationProblem& problem,
                                 const OptimizerOptions& options = {});

/// Exhaustive subset-enumeration reference engine (exponential in the
/// candidate count; for tests and small problems).
ParetoFront pareto_front_exact(const MitigationProblem& problem,
                               const OptimizerOptions& options = {});

/// Renders the Pareto ASP encoding of `problem` (inspection and tests).
std::string encode_pareto_asp(const MitigationProblem& problem);

/// "Raise the bar" hardening (paper §IV-D "most efficient attack"): choose
/// mitigations, within `budget`, that maximize the attacker's cheapest
/// remaining option — the minimum `attack_cost` over unblocked attacker
/// threats (threats with attack_cost 0 are spontaneous faults and are
/// ignored by this objective). Ties break toward lower residual loss, then
/// lower mitigation cost. When every attacker threat can be blocked within
/// budget, the result reports `hardened_floor == nullopt` (no attack left).
struct AttackFloorResult {
    Selection selection;
    /// Cheapest attack still available, if any.
    std::optional<long long> cheapest_remaining_attack;
};

AttackFloorResult harden_attack_cost(const MitigationProblem& problem, long long budget);

/// Multi-phase security consolidation (paper §IV-D: "a multi-phase strategy
/// where the actions can be prioritized"): repeatedly solve under the
/// per-phase budget, commit the chosen mitigations, and continue on the
/// residual threats until nothing more can be blocked.
struct Phase {
    int number = 1;
    Selection selection;
};

std::vector<Phase> plan_phases(const MitigationProblem& problem, long long budget_per_phase,
                               std::size_t max_phases = 8);

}  // namespace cprisk::mitigation
