// Brute-force answer-set reference for differential tests of the stable-model
// solver (docs/solver.md). It follows the textbook definitions and shares no
// code with the CDCL engine: every subset of ground atoms is a candidate; a
// candidate is an answer set when it agrees with the assumption pins, fires
// no constraint (aggregate guards included), respects every choice bound,
// and equals the least model of its Gelfond-Lifschitz reduct. Answer sets
// are projected onto the #show signatures and deduplicated.
//
// Weak constraints follow clingo: every holding weak constraint names the
// cost element (weight, priority, tuple), each distinct element counts once,
// and optimal models are the lexicographically least by descending
// priority. Exponential in the atom count, so callers keep programs small.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "asp/asp.hpp"

namespace cprisk::asp::reference {

/// Largest program the brute force accepts (2^18 candidates).
inline constexpr std::size_t kMaxAtoms = 18;

using Cost = std::map<long long, long long>;  ///< priority -> cost
using Pins = std::vector<std::pair<int, bool>>;

/// One projected answer set: rendered shown atoms plus its cost.
using Model = std::pair<std::set<std::string>, Cost>;

struct Solution {
    bool satisfiable = false;
    Cost best_cost;          ///< optimum; empty without weak constraints
    std::set<Model> models;  ///< optimal projected answer sets
};

using Candidate = std::vector<bool>;  ///< atom id -> truth value

inline bool literals_hold(const Candidate& m, const std::vector<int>& positive,
                          const std::vector<int>& negative) {
    for (int p : positive) {
        if (!m[static_cast<std::size_t>(p)]) return false;
    }
    for (int n : negative) {
        if (m[static_cast<std::size_t>(n)]) return false;
    }
    return true;
}

/// Value of a #count/#sum guard: each distinct element tuple whose
/// condition holds contributes its weight once.
inline bool aggregate_holds(const Candidate& m, const GroundAggregate& aggregate) {
    std::map<std::string, long long> contributions;
    for (const GroundAggregateElement& element : aggregate.elements) {
        if (literals_hold(m, element.condition, {})) {
            contributions.emplace(element.tuple, element.weight);
        }
    }
    long long value = 0;
    for (const auto& [tuple, weight] : contributions) value += weight;
    switch (aggregate.op) {
        case CompareOp::Eq: return value == aggregate.bound;
        case CompareOp::Ne: return value != aggregate.bound;
        case CompareOp::Lt: return value < aggregate.bound;
        case CompareOp::Le: return value <= aggregate.bound;
        case CompareOp::Gt: return value > aggregate.bound;
        case CompareOp::Ge: return value >= aggregate.bound;
    }
    return false;
}

inline bool is_answer_set(const GroundProgram& program, const Candidate& m) {
    for (const GroundRule& rule : program.rules()) {
        if (!literals_hold(m, rule.positive_body, rule.negative_body)) continue;
        if (rule.kind == GroundRule::Kind::Constraint) {
            bool fires = true;
            for (const GroundAggregate& aggregate : rule.aggregates) {
                fires = fires && aggregate_holds(m, aggregate);
            }
            if (fires) return false;
        } else if (rule.kind == GroundRule::Kind::Choice) {
            long long chosen = 0;
            for (int h : rule.choice_heads) chosen += m[static_cast<std::size_t>(h)] ? 1 : 0;
            if (rule.lower_bound && chosen < *rule.lower_bound) return false;
            if (rule.upper_bound && chosen > *rule.upper_bound) return false;
        }
    }
    // Least model of the reduct: negative bodies are evaluated against the
    // candidate, chosen atoms of an applicable choice rule support
    // themselves.
    Candidate derived(m.size(), false);
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (const GroundRule& rule : program.rules()) {
            if (rule.kind == GroundRule::Kind::Constraint) continue;
            if (!literals_hold(m, {}, rule.negative_body)) continue;
            if (!literals_hold(derived, rule.positive_body, {})) continue;
            std::vector<int> heads;
            if (rule.kind == GroundRule::Kind::Normal) {
                heads.push_back(rule.head);
            } else {
                for (int h : rule.choice_heads) {
                    if (m[static_cast<std::size_t>(h)]) heads.push_back(h);
                }
            }
            for (int h : heads) {
                if (!derived[static_cast<std::size_t>(h)]) {
                    derived[static_cast<std::size_t>(h)] = true;
                    progressed = true;
                }
            }
        }
    }
    return derived == m;
}

inline Cost cost_of(const GroundProgram& program, const Candidate& m) {
    std::set<std::tuple<long long, long long, std::string>> elements;
    for (const GroundWeak& weak : program.weaks()) {
        if (literals_hold(m, weak.positive_body, weak.negative_body)) {
            elements.emplace(weak.weight, weak.priority, weak.tuple);
        }
    }
    Cost cost;
    for (const auto& [weight, priority, tuple] : elements) cost[priority] += weight;
    return cost;
}

/// Lexicographic comparison by descending priority; a missing priority
/// costs 0.
inline bool cost_less(const Cost& a, const Cost& b) {
    std::set<long long> priorities;
    for (const auto& [priority, value] : a) priorities.insert(priority);
    for (const auto& [priority, value] : b) priorities.insert(priority);
    for (auto it = priorities.rbegin(); it != priorities.rend(); ++it) {
        const long long va = a.count(*it) != 0 ? a.at(*it) : 0;
        const long long vb = b.count(*it) != 0 ? b.at(*it) : 0;
        if (va != vb) return va < vb;
    }
    return false;
}

/// Every optimal projected answer set of `program` under `pins`. An
/// out-of-range pin makes the program unsatisfiable.
inline Solution solve(const GroundProgram& program, const Pins& pins = {}) {
    const std::size_t n = program.atom_count();
    Solution solution;
    for (const auto& [atom, value] : pins) {
        if (atom < 0 || static_cast<std::size_t>(atom) >= n) return solution;
    }
    std::vector<Model> found;
    for (unsigned long mask = 0; mask < (1ul << n); ++mask) {
        Candidate m(n);
        for (std::size_t a = 0; a < n; ++a) m[a] = ((mask >> a) & 1ul) != 0;
        bool agrees = true;
        for (const auto& [atom, value] : pins) {
            agrees = agrees && m[static_cast<std::size_t>(atom)] == value;
        }
        if (!agrees || !is_answer_set(program, m)) continue;
        Model model;
        for (std::size_t a = 0; a < n; ++a) {
            if (m[a] && program.is_shown(static_cast<int>(a))) {
                model.first.insert(program.atom(static_cast<int>(a)).to_string());
            }
        }
        model.second = cost_of(program, m);
        found.push_back(std::move(model));
    }
    solution.satisfiable = !found.empty();
    if (!solution.satisfiable) return solution;
    const bool optimize = !program.weaks().empty();
    if (optimize) {
        solution.best_cost = found.front().second;
        for (const Model& model : found) {
            if (cost_less(model.second, solution.best_cost)) solution.best_cost = model.second;
        }
    }
    for (Model& model : found) {
        if (optimize && cost_less(solution.best_cost, model.second)) continue;
        solution.models.insert(std::move(model));
    }
    return solution;
}

/// Solves `program` under `pins` with asp::solve() (default options) and
/// expects exactly the reference's satisfiability, optimum, and optimal
/// projected answer sets, each reported once.
inline void expect_matches_reference(const GroundProgram& program, const Pins& pins = {}) {
    ASSERT_LE(program.atom_count(), kMaxAtoms) << "program too large for brute force";
    SolveOptions options;
    options.assumptions = pins;
    auto solved = asp::solve(program, options);
    ASSERT_TRUE(solved.ok()) << solved.error();
    const SolveResult& result = solved.value();
    std::set<Model> models;
    for (const AnswerSet& answer : result.models) {
        Model model;
        for (const Atom& atom : answer.atoms) model.first.insert(atom.to_string());
        model.second = answer.cost;
        models.insert(std::move(model));
    }
    const Solution expected = solve(program, pins);
    EXPECT_EQ(result.satisfiable, expected.satisfiable);
    EXPECT_EQ(result.best_cost, expected.best_cost);
    EXPECT_EQ(models, expected.models) << "ground:\n" << program.to_string();
    EXPECT_EQ(result.models.size(), models.size()) << "duplicate projected models";
}

/// Parses and grounds `text`, then expect_matches_reference().
inline void expect_text_matches_reference(const std::string& text, const Pins& pins = {}) {
    SCOPED_TRACE(text);
    auto parsed = parse_program(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    auto grounded = ground(parsed.value());
    ASSERT_TRUE(grounded.ok()) << grounded.error();
    expect_matches_reference(grounded.value(), pins);
}

}  // namespace cprisk::asp::reference
