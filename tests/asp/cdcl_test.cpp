// CDCL engine behaviour (docs/solver.md): agreement with the brute-force
// reference (reference_solver.hpp) on hand-picked programs, assumption
// handling and UNSAT cores, persistent incremental solving, the learning
// fault seam, and the solver pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "asp/asp.hpp"
#include "asp/cdcl.hpp"
#include "asp/incremental.hpp"
#include "common/fault_injection.hpp"
#include "common/strings.hpp"
#include "reference_solver.hpp"

namespace cprisk::asp {
namespace {

GroundProgram must_ground(const std::string& text) {
    auto parsed = parse_program(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error() << "\n" << text;
    auto grounded = ground(parsed.value());
    EXPECT_TRUE(grounded.ok()) << grounded.error() << "\n" << text;
    return grounded.ok() ? std::move(grounded).value() : GroundProgram{};
}

int must_find(const GroundProgram& program, const std::string& atom_text) {
    auto atom = parse_atom(atom_text);
    EXPECT_TRUE(atom.ok()) << atom.error();
    const int id = program.find(atom.value());
    EXPECT_GE(id, 0) << atom_text << " not interned";
    return id;
}

SolveResult must_solve(const GroundProgram& program, const SolveOptions& options) {
    auto result = solve(program, options);
    EXPECT_TRUE(result.ok()) << result.error();
    return result.ok() ? std::move(result).value() : SolveResult{};
}

/// Projected model plus cost, fully comparable.
using ModelKey = std::pair<std::set<std::string>, std::vector<std::pair<long long, long long>>>;

std::vector<ModelKey> model_keys(const SolveResult& result) {
    std::vector<ModelKey> keys;
    for (const AnswerSet& model : result.models) {
        ModelKey key;
        for (const Atom& a : model.atoms) key.first.insert(a.to_string());
        for (const auto& [priority, weight] : model.cost) key.second.emplace_back(priority, weight);
        keys.push_back(std::move(key));
    }
    return keys;
}

// Compared against the brute-force reference; the test ID is historical and
// kept stable.
TEST(Cdcl, AgreesWithDpllOnHandPickedPrograms) {
    const char* programs[] = {
        "a. b :- a. c :- b, not d.",
        "a :- not b. b :- not a.",
        "a :- not a.",
        "a :- b. b :- a.",
        "a :- b. b :- a. b :- c. { c }.",
        "{ a }. { b }. :- a, b.",
        "{ a ; b ; c }. :- not a, not b, not c.",
        "1 { a ; b } 1.",
        "0 { a ; b } 1. c :- a.",
        "a :- not b. b :- not c. c :- not a.",
        "1 { a ; b } 1. 1 { b ; c } 1. 1 { c ; a } 1.",  // odd XOR cycle: unsat
        "{ a }. b :- a. c :- not b.",
        "p(1..3). q(X) :- p(X), not r(X). { r(2) }.",
        "{ a ; b }. :~ a. [2@1, a] :~ b. [1@1, b]",
        "{ a ; b ; c }. :~ a. [1@2, a] :~ b. [1@1, b] :- not a, not b, not c.",
        "{ seed }. echo :- peer. peer :- echo. echo :- seed.",
    };
    for (const char* text : programs) reference::expect_text_matches_reference(text);
}

TEST(Cdcl, AssumptionsPinAtoms) {
    GroundProgram program = must_ground("{ a }. b :- a. c :- not a.");
    const int a = must_find(program, "a");

    SolveOptions options;
    options.assumptions = {{a, true}};
    SolveResult pinned_true = must_solve(program, options);
    ASSERT_EQ(pinned_true.models.size(), 1u);
    EXPECT_TRUE(pinned_true.models[0].contains(parse_atom("b").value()));

    options.assumptions = {{a, false}};
    SolveResult pinned_false = must_solve(program, options);
    ASSERT_EQ(pinned_false.models.size(), 1u);
    EXPECT_TRUE(pinned_false.models[0].contains(parse_atom("c").value()));

    reference::expect_matches_reference(program, {{a, true}});
    reference::expect_matches_reference(program, {{a, false}});
}

TEST(Cdcl, UnsatUnderAssumptionsYieldsCore) {
    GroundProgram program = must_ground("{ a }. { b }. { c }. :- a, b.");
    const int a = must_find(program, "a");
    const int b = must_find(program, "b");
    const int c = must_find(program, "c");

    SolveOptions options;
    options.assumptions = {{a, true}, {b, true}, {c, true}};
    SolveResult result = must_solve(program, options);
    EXPECT_FALSE(result.satisfiable);
    ASSERT_TRUE(result.assumption_core.has_value());

    // The core is a subset of the assumptions, stays unsatisfiable on its
    // own, and excludes the irrelevant pin on c.
    for (const auto& assumption : *result.assumption_core) {
        EXPECT_NE(std::find(options.assumptions.begin(), options.assumptions.end(), assumption),
                  options.assumptions.end());
        EXPECT_NE(assumption.first, c);
    }
    SolveOptions core_only;
    core_only.assumptions = *result.assumption_core;
    EXPECT_FALSE(must_solve(program, core_only).satisfiable);
}

TEST(Cdcl, SatisfiableLeavesNoCore) {
    GroundProgram program = must_ground("{ a }. b :- a.");
    SolveOptions options;
    options.assumptions = {{must_find(program, "a"), true}};
    SolveResult result = must_solve(program, options);
    EXPECT_TRUE(result.satisfiable);
    EXPECT_FALSE(result.assumption_core.has_value());
}

TEST(Cdcl, Chain6CoreIsUnsatAndContainsAMinimalCore) {
    // Six chained links derive c6, which is forbidden; four free atoms are
    // irrelevant. Pinning everything true is UNSAT with the six links as the
    // unique minimal core.
    std::string text = "{ g1 }. { g2 }. { g3 }. { g4 }.\n";
    for (int i = 1; i <= 6; ++i) {
        const std::string fi = numbered("f", i);
        text += "{ " + fi + " }.\n";
        if (i == 1) {
            text += "c1 :- f1.\n";
        } else {
            text += numbered("c", i) + " :- c" + std::to_string(i - 1) + ", " + fi + ".\n";
        }
    }
    text += ":- c6.\n";
    GroundProgram program = must_ground(text);

    std::vector<std::pair<int, bool>> assumptions;
    for (int i = 1; i <= 6; ++i) {
        assumptions.emplace_back(must_find(program, numbered("f", i)), true);
    }
    for (int i = 1; i <= 4; ++i) {
        assumptions.emplace_back(must_find(program, numbered("g", i)), true);
    }

    SolveOptions options;
    options.assumptions = assumptions;
    SolveResult result = must_solve(program, options);
    EXPECT_FALSE(result.satisfiable);
    ASSERT_TRUE(result.assumption_core.has_value());
    const std::set<std::pair<int, bool>> core(result.assumption_core->begin(),
                                              result.assumption_core->end());

    // Brute force every assumption subset; collect the minimal UNSAT ones.
    std::vector<std::set<std::pair<int, bool>>> unsat_subsets;
    for (unsigned mask = 0; mask < (1u << assumptions.size()); ++mask) {
        SolveOptions subset_options;
        std::set<std::pair<int, bool>> subset;
        for (std::size_t i = 0; i < assumptions.size(); ++i) {
            if ((mask >> i) & 1u) {
                subset_options.assumptions.push_back(assumptions[i]);
                subset.insert(assumptions[i]);
            }
        }
        if (!must_solve(program, subset_options).satisfiable) unsat_subsets.push_back(std::move(subset));
    }
    std::vector<std::set<std::pair<int, bool>>> minimal;
    for (const auto& s : unsat_subsets) {
        bool is_minimal = true;
        for (const auto& t : unsat_subsets) {
            if (t != s && std::includes(s.begin(), s.end(), t.begin(), t.end())) {
                is_minimal = false;
                break;
            }
        }
        if (is_minimal) minimal.push_back(s);
    }
    ASSERT_FALSE(minimal.empty());
    // The reported core must contain a minimal core (it is UNSAT on its own)
    // and be no larger than the full relevant chain: the four free pins
    // never participate in the conflict.
    bool contains_minimal = false;
    for (const auto& m : minimal) {
        if (std::includes(core.begin(), core.end(), m.begin(), m.end())) contains_minimal = true;
    }
    EXPECT_TRUE(contains_minimal);
    for (int i = 1; i <= 4; ++i) {
        EXPECT_EQ(core.count({must_find(program, numbered("g", i)), true}), 0u);
    }
}

TEST(Cdcl, IncrementalSolverRetainsEntailedClausesAcrossSolves) {
    // The odd XOR cycle is active only under s; pinning s true exposes the
    // conflict, so the first solve learns entailed clauses mentioning s that
    // the second solve re-uses to refute the same pin without re-searching.
    GroundProgram program = must_ground(
        "{ s }. 1 { a ; b } 1 :- s. 1 { b ; c } 1 :- s. 1 { c ; a } 1 :- s.");
    IncrementalSolver solver(program);
    EXPECT_EQ(solver.program(), &program);
    const int s = must_find(program, "s");

    SolveOptions options;
    options.assumptions = {{s, true}};
    SolveResult first = solver.solve(options);
    EXPECT_FALSE(first.satisfiable);
    EXPECT_GT(first.stats.conflicts, 0u);
    EXPECT_EQ(solver.solve_generation(), 1u);
    EXPECT_GT(solver.retained_learned(), 0u);

    SolveResult second = solver.solve(options);
    EXPECT_FALSE(second.satisfiable);
    EXPECT_EQ(solver.solve_generation(), 2u);
    // Warm solve: propagation whose reasons are clauses learned by an
    // earlier generation closes the refutation without repeating the search.
    EXPECT_GT(second.stats.reused_clause_propagations, 0u);
    EXPECT_LT(second.stats.conflicts, first.stats.conflicts);

    // Unpinned, the warm solver still sees the satisfiable program.
    SolveResult unpinned = solver.solve(SolveOptions{});
    EXPECT_TRUE(unpinned.satisfiable);
}

TEST(Cdcl, UnsatProgramIsRememberedAcrossSolves) {
    GroundProgram program = must_ground("1 { a ; b } 1. 1 { b ; c } 1. 1 { c ; a } 1.");
    IncrementalSolver solver(program);
    SolveResult first = solver.solve(SolveOptions{});
    EXPECT_FALSE(first.satisfiable);
    EXPECT_GT(first.stats.conflicts, 0u);
    // The refutation is entailed, so the second solve is immediate.
    SolveResult second = solver.solve(SolveOptions{});
    EXPECT_FALSE(second.satisfiable);
    EXPECT_EQ(second.stats.conflicts, 0u);
}

TEST(Cdcl, IncrementalSolverAgreesWithColdSolvesUnderChangingAssumptions) {
    GroundProgram program = must_ground(
        "{ f1 }. { f2 }. x :- f1, not f2. y :- f2, not f1. both :- f1, f2. :- both.");
    IncrementalSolver warm(program);
    const int f1 = must_find(program, "f1");
    const int f2 = must_find(program, "f2");
    const std::vector<std::vector<std::pair<int, bool>>> contexts = {
        {}, {{f1, true}}, {{f2, true}}, {{f1, true}, {f2, true}}, {{f1, false}, {f2, false}},
        {{f1, true}, {f2, false}}, {{f1, true}}, {},  // revisits exercise retained state
    };
    for (const auto& context : contexts) {
        SolveOptions options;
        options.assumptions = context;
        SolveResult warm_result = warm.solve(options);
        CdclSolver cold(program);
        SolveResult cold_result = cold.solve(options);
        EXPECT_EQ(warm_result.satisfiable, cold_result.satisfiable);
        EXPECT_EQ(model_keys(warm_result), model_keys(cold_result));
        EXPECT_EQ(warm_result.assumption_core.has_value(),
                  cold_result.assumption_core.has_value());
    }
}

TEST(Cdcl, LearnFaultSeamDegradesToLearningOffWithSameAnswers) {
    GroundProgram program = must_ground("1 { a ; b } 1. 1 { b ; c } 1. 1 { c ; a } 1.");
    SolveOptions options;
    SolveResult reference = must_solve(program, options);

    fault::reset();
    fault::arm("asp.cdcl.learn", 1);
    SolveResult degraded = must_solve(program, options);
    fault::reset();

    EXPECT_EQ(degraded.satisfiable, reference.satisfiable);
    EXPECT_EQ(model_keys(degraded), model_keys(reference));

    // Same seam on a satisfiable enumeration.
    GroundProgram sat = must_ground("1 { a ; b } 1. 1 { b ; c } 1.");
    SolveResult sat_reference = must_solve(sat, options);
    fault::reset();
    fault::arm("asp.cdcl.learn", 1);
    SolveResult sat_degraded = must_solve(sat, options);
    fault::reset();
    EXPECT_EQ(model_keys(sat_degraded), model_keys(sat_reference));
}

TEST(Cdcl, SolveDispatchUsesWarmSolverOnlyForMatchingProgram) {
    GroundProgram program = must_ground("{ a }. b :- a.");
    GroundProgram other = must_ground("{ x }. y :- x.");
    IncrementalSolver warm(program);

    SolveOptions options;
    options.incremental = &warm;
    SolveResult via_warm = must_solve(program, options);
    EXPECT_EQ(via_warm.models.size(), 2u);
    EXPECT_EQ(warm.solve_generation(), 1u);

    // Mismatched program: dispatch must fall back to a cold solver rather
    // than feed the wrong completion.
    SolveResult mismatched = must_solve(other, options);
    EXPECT_EQ(mismatched.models.size(), 2u);
    EXPECT_EQ(warm.solve_generation(), 1u);
}

TEST(Cdcl, SolverPoolReusesIdleSolvers) {
    GroundProgram program = must_ground("{ a }. b :- a.");
    SolverPool pool(program);
    {
        SolverPool::Lease one = pool.acquire();
        SolverPool::Lease two = pool.acquire();
        ASSERT_NE(one.solver(), nullptr);
        ASSERT_NE(two.solver(), nullptr);
        EXPECT_NE(one.solver(), two.solver());
        EXPECT_EQ(pool.size(), 2u);
        SolveOptions options;
        EXPECT_TRUE(one.solver()->solve(options).satisfiable);
    }
    // Both leases returned: the next acquire re-uses a warm solver.
    SolverPool::Lease again = pool.acquire();
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(again.solver()->program(), &program);
}

TEST(Cdcl, BudgetInterruptReportsPartialResultWithoutCore) {
    GroundProgram program = must_ground(
        "{ a1 }. { a2 }. { a3 }. { a4 }. { a5 }. { a6 }. { a7 }. { a8 }.");
    SolveOptions options;
    options.max_decisions = 3;  // 256 models need far more decisions
    SolveResult result = must_solve(program, options);
    ASSERT_TRUE(result.interrupt.has_value());
    EXPECT_FALSE(result.assumption_core.has_value());
}

TEST(Cdcl, StatsExposeLearningActivity) {
    GroundProgram program = must_ground("1 { a ; b } 1. 1 { b ; c } 1. 1 { c ; a } 1.");
    SolveResult result = must_solve(program, SolveOptions{});
    EXPECT_FALSE(result.satisfiable);
    EXPECT_GT(result.stats.conflicts, 0u);
    EXPECT_GT(result.stats.learned_clauses, 0u);
    EXPECT_GT(result.stats.learned_literals, 0u);
}

}  // namespace
}  // namespace cprisk::asp
