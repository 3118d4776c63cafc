#include "asp/solver.hpp"

#include <algorithm>

#include "asp/cdcl.hpp"
#include "asp/incremental.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace cprisk::asp {

std::string SolveInterrupt::to_string() const {
    std::string out(cprisk::to_string(reason));
    switch (reason) {
        case BudgetReason::Deadline: out = "wall-clock deadline exceeded"; break;
        case BudgetReason::DecisionLimit: out = "decision budget exceeded"; break;
        case BudgetReason::StepLimit: out = "step budget exceeded"; break;
        case BudgetReason::Cancelled: out = "cancelled"; break;
    }
    out += " (decisions=" + std::to_string(stats.decisions) +
           ", conflicts=" + std::to_string(stats.conflicts) +
           ", propagations=" + std::to_string(stats.propagations) + ")";
    return out;
}

bool AnswerSet::contains(const Atom& atom) const {
    return std::binary_search(atoms.begin(), atoms.end(), atom);
}

bool AnswerSet::contains_predicate(const std::string& predicate) const {
    for (const Atom& a : atoms) {
        if (a.predicate == predicate) return true;
    }
    return false;
}

std::vector<Atom> AnswerSet::with_predicate(const std::string& predicate) const {
    std::vector<Atom> out;
    for (const Atom& a : atoms) {
        if (a.predicate == predicate) out.push_back(a);
    }
    return out;
}

std::string AnswerSet::to_string() const {
    std::string out;
    for (const Atom& a : atoms) {
        if (!out.empty()) out += " ";
        out += a.to_string();
    }
    for (const auto& [priority, value] : cost) {
        out += " [cost " + std::to_string(value) + "@" + std::to_string(priority) + "]";
    }
    return out;
}

Result<SolveResult> solve(const GroundProgram& program, const SolveOptions& options) {
    if (fault::should_fail("asp.solver.solve")) {
        return Result<SolveResult>::failure("solver: injected fault (site asp.solver.solve)");
    }
    obs::Span span(options.trace, "asp.solve", "solve");
    try {
        SolveResult solved;
        if (options.incremental != nullptr && options.incremental->program() == &program) {
            // Warm path: reuse the built completion and retained clauses.
            solved = options.incremental->solve(options);
        } else {
            CdclSolver solver(program);
            solved = solver.solve(options);
        }
        const SolveStats& stats = solved.stats;
        span.arg("decisions", static_cast<long long>(stats.decisions));
        span.arg("conflicts", static_cast<long long>(stats.conflicts));
        span.arg("models", static_cast<long long>(solved.models.size()));
        obs::add_counter(options.metrics, "asp.solve.calls");
        obs::add_counter(options.metrics, "asp.solve.decisions", stats.decisions);
        obs::add_counter(options.metrics, "asp.solve.conflicts", stats.conflicts);
        obs::add_counter(options.metrics, "asp.solve.propagations", stats.propagations);
        obs::add_counter(options.metrics, "asp.solve.models", solved.models.size());
        obs::add_counter(options.metrics, "asp.solve.restarts", stats.restarts);
        obs::add_counter(options.metrics, "asp.solve.learned_clauses", stats.learned_clauses);
        obs::add_counter(options.metrics, "asp.solve.reused_propagations",
                         stats.reused_clause_propagations);
        if (solved.interrupt.has_value()) {
            obs::add_counter(options.metrics, "asp.solve.interrupts");
        }
        if (solved.assumption_core.has_value()) {
            obs::add_counter(options.metrics, "asp.solve.core_size",
                             solved.assumption_core->size());
        }
        return solved;
    } catch (const Error& e) {
        return Result<SolveResult>::failure(e.what());
    }
}

}  // namespace cprisk::asp
