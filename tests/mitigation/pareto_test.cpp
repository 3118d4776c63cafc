// Pareto-front mitigation planning (mitigation/optimizer.hpp,
// docs/quantitative-risk.md): nondominance and determinism of the exact
// front, ASP/exact engine agreement on objective tuples, and knee
// properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/strings.hpp"
#include "mitigation/optimizer.hpp"

namespace cprisk::mitigation {
namespace {

/// Same fixture as optimizer_test.cpp: t1 coverable by m1 (2) or m2 (5),
/// t2 by m3 (4) alone or m1+m3.
MitigationProblem small_problem() {
    MitigationProblem problem;
    problem.candidates = {
        {"m1", "Patch", 2},
        {"m2", "Segment", 5},
        {"m3", "Train", 4},
    };
    Threat t1;
    t1.scenario_id = "t1";
    t1.loss = 100;
    t1.mutation_covers = {{"m1", "m2"}};
    Threat t2;
    t2.scenario_id = "t2";
    t2.loss = 50;
    t2.mutation_covers = {{"m3"}, {"m1", "m3"}};
    problem.threats = {t1, t2};
    return problem;
}

/// a dominates b on (cost asc, residual asc, coverage desc), strictly
/// better in at least one objective.
bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
    if (a.cost() > b.cost() || a.residual() > b.residual() || a.coverage < b.coverage) {
        return false;
    }
    return a.cost() < b.cost() || a.residual() < b.residual() || a.coverage > b.coverage;
}

std::vector<std::tuple<long long, long long, std::size_t>> objectives(
    const ParetoFront& front) {
    std::vector<std::tuple<long long, long long, std::size_t>> tuples;
    for (const ParetoPoint& point : front.points()) {
        tuples.emplace_back(point.cost(), point.residual(), point.coverage);
    }
    return tuples;
}

/// Deterministic problem generator (seeded LCG; no wall-clock or global
/// randomness so failures replay exactly). Small enough for the
/// exponential reference engine.
MitigationProblem random_problem(unsigned long long seed) {
    unsigned long long state = seed * 6364136223846793005ull + 1442695040888963407ull;
    auto next = [&state](unsigned long long bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    MitigationProblem problem;
    const std::size_t candidates = 2 + next(4);  // 2..5
    for (std::size_t i = 0; i < candidates; ++i) {
        problem.candidates.push_back({numbered("m", i), "Gen",
                                      static_cast<long long>(1 + next(9))});
    }
    const std::size_t threats = 1 + next(4);  // 1..4
    for (std::size_t i = 0; i < threats; ++i) {
        Threat threat;
        threat.scenario_id = numbered("t", i);
        threat.loss = static_cast<long long>(5 + next(95));
        const std::size_t mutations = 1 + next(2);
        for (std::size_t m = 0; m < mutations; ++m) {
            std::vector<std::string> covers;
            const std::size_t width = next(candidates + 1);  // may be empty
            for (std::size_t c = 0; c < width; ++c) {
                covers.push_back(numbered("m", next(candidates)));
            }
            std::sort(covers.begin(), covers.end());
            covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
            threat.mutation_covers.push_back(std::move(covers));
        }
        problem.threats.push_back(std::move(threat));
    }
    return problem;
}

TEST(ParetoFront, SmallProblemFrontIsTheExpectedTradeOffCurve) {
    const ParetoFront front = pareto_front_exact(small_problem());
    ASSERT_FALSE(front.empty());
    // {} (0 cost, 150 residual), {m1} (2, 50), {m1,m3} (6, 0) are all
    // nondominated; {m2}-flavoured points are dominated by their m1 twins.
    ASSERT_EQ(front.size(), 3u);
    EXPECT_TRUE(front.points()[0].selection.chosen.empty());
    EXPECT_EQ(front.points()[1].selection.chosen, (std::vector<std::string>{"m1"}));
    EXPECT_EQ(front.points()[2].selection.chosen, (std::vector<std::string>{"m1", "m3"}));
    // Sorted by ascending mitigation cost.
    EXPECT_EQ(front.points()[0].cost(), 0);
    EXPECT_EQ(front.points()[1].cost(), 2);
    EXPECT_EQ(front.points()[2].cost(), 6);
    // The knee is the minimum-total-cost point: {m1,m3} at 6 + 0.
    EXPECT_EQ(&front.knee(), &front.points()[2]);
}

TEST(ParetoFront, GeneratedFrontsAreNondominatedAndComplete) {
    for (unsigned long long seed = 1; seed <= 24; ++seed) {
        const MitigationProblem problem = random_problem(seed);
        const ParetoFront front = pareto_front_exact(problem);
        ASSERT_FALSE(front.empty()) << "seed " << seed;  // {} is always a point

        // No point dominates another.
        for (std::size_t i = 0; i < front.size(); ++i) {
            for (std::size_t j = 0; j < front.size(); ++j) {
                if (i == j) continue;
                EXPECT_FALSE(dominates(front.points()[i], front.points()[j]))
                    << "seed " << seed << ": point " << i << " dominates " << j;
            }
        }
        // The front dominates-or-ties every subset (spot-check via the
        // knee's optimality: no subset beats its total cost).
        const ParetoPoint& knee = front.knee();
        const Selection optimal = optimize_exact(problem);
        EXPECT_EQ(knee.selection.total_cost(), optimal.total_cost()) << "seed " << seed;
    }
}

TEST(ParetoFront, AspEngineMatchesTheExactFrontOnObjectives) {
    for (unsigned long long seed = 1; seed <= 12; ++seed) {
        const MitigationProblem problem = random_problem(seed);
        const ParetoFront exact = pareto_front_exact(problem);
        auto asp = pareto_front(problem);
        ASSERT_TRUE(asp.ok()) << "seed " << seed << ": " << asp.error();
        EXPECT_EQ(objectives(asp.value()), objectives(exact)) << "seed " << seed;
    }
}

TEST(ParetoFront, DeterministicAcrossRepeatedRuns) {
    const MitigationProblem problem = random_problem(5);
    const ParetoFront first = pareto_front_exact(problem);
    const ParetoFront second = pareto_front_exact(problem);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first.points()[i].selection.chosen, second.points()[i].selection.chosen);
    }
}

TEST(ParetoFront, BudgetCapsEveryPoint) {
    OptimizerOptions options;
    options.budget = 4;
    auto front = pareto_front(small_problem(), options);
    ASSERT_TRUE(front.ok()) << front.error();
    ASSERT_FALSE(front.value().empty());
    for (const ParetoPoint& point : front.value().points()) {
        EXPECT_LE(point.cost(), 4);
    }
}

TEST(ParetoFront, KneePrefersCoverageThenLexSmallestOnTies) {
    // Two disjoint single-mitigation covers of equal cost for one threat:
    // both {ma} and {mb} land at (3, 0, 1); dedup keeps the lexicographically
    // smaller chosen set and the knee reports it.
    MitigationProblem problem;
    problem.candidates = {{"mb", "B", 3}, {"ma", "A", 3}};
    Threat threat;
    threat.scenario_id = "t";
    threat.loss = 40;
    threat.mutation_covers = {{"ma", "mb"}};
    problem.threats = {threat};
    const ParetoFront front = pareto_front_exact(problem);
    const ParetoPoint& knee = front.knee();
    EXPECT_EQ(knee.selection.chosen, (std::vector<std::string>{"ma"}));
    EXPECT_EQ(knee.coverage, 1u);
}

}  // namespace
}  // namespace cprisk::mitigation
